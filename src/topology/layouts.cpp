#include "topology/layouts.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace vaq::topology
{

CouplingGraph
ibmQ20Tokyo()
{
    // Published coupling map of IBM-Q20 Tokyo. 4x5 array with
    // nearest-neighbour links plus diagonals inside alternating
    // squares. The paper reports 76 link characterizations
    // (directed CX pairs); undirected that corresponds to the edge
    // set below.
    const std::vector<Link> links = {
        // Row 0: 0-1-2-3-4
        {0, 1}, {1, 2}, {2, 3}, {3, 4},
        // Row 1: 5-6-7-8-9
        {5, 6}, {6, 7}, {7, 8}, {8, 9},
        // Row 2: 10-11-12-13-14
        {10, 11}, {11, 12}, {12, 13}, {13, 14},
        // Row 3: 15-16-17-18-19
        {15, 16}, {16, 17}, {17, 18}, {18, 19},
        // Columns
        {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
        {5, 10}, {6, 11}, {7, 12}, {8, 13}, {9, 14},
        {10, 15}, {11, 16}, {12, 17}, {13, 18}, {14, 19},
        // Diagonals (published cross couplings)
        {1, 7}, {2, 6}, {3, 9}, {4, 8},
        {5, 11}, {6, 10}, {7, 13}, {8, 12},
        {11, 17}, {12, 16}, {13, 19}, {14, 18},
    };
    return CouplingGraph("ibm-q20-tokyo", 20, links);
}

CouplingGraph
ibmQ5Tenerife()
{
    const std::vector<Link> links = {
        {0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4},
    };
    return CouplingGraph("ibm-q5-tenerife", 5, links);
}

CouplingGraph
linear(int n)
{
    require(n >= 1, "linear layout needs at least one qubit");
    std::vector<Link> links;
    for (int i = 0; i + 1 < n; ++i)
        links.push_back(Link{i, i + 1});
    return CouplingGraph("linear-" + std::to_string(n), n, links);
}

CouplingGraph
ring(int n)
{
    require(n >= 3, "ring layout needs at least three qubits");
    std::vector<Link> links;
    for (int i = 0; i < n; ++i)
        links.push_back(Link{i, (i + 1) % n});
    return CouplingGraph("ring-" + std::to_string(n), n, links);
}

CouplingGraph
grid(int rows, int cols)
{
    require(rows >= 1 && cols >= 1, "grid dimensions must be positive");
    std::vector<Link> links;
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                links.push_back(Link{id(r, c), id(r, c + 1)});
            if (r + 1 < rows)
                links.push_back(Link{id(r, c), id(r + 1, c)});
        }
    }
    return CouplingGraph(
        "grid-" + std::to_string(rows) + "x" + std::to_string(cols),
        rows * cols, links);
}

CouplingGraph
ibmFalcon27()
{
    const std::vector<Link> links = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},
        {4, 7},   {5, 8},   {6, 7},   {7, 10},  {8, 9},
        {8, 11},  {10, 12}, {11, 14}, {12, 13}, {12, 15},
        {13, 14}, {14, 16}, {15, 18}, {16, 19}, {17, 18},
        {18, 21}, {19, 20}, {19, 22}, {21, 23}, {22, 25},
        {23, 24}, {24, 25}, {25, 26},
    };
    return CouplingGraph("ibm-falcon-27", 27, links);
}

CouplingGraph
fullyConnected(int n)
{
    require(n >= 1, "fully connected layout needs >= 1 qubit");
    std::vector<Link> links;
    for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b)
            links.push_back(Link{a, b});
    }
    return CouplingGraph("full-" + std::to_string(n), n, links);
}

CouplingGraph
machineByName(const std::string &name)
{
    if (name == "q20")
        return ibmQ20Tokyo();
    if (name == "q5")
        return ibmQ5Tenerife();
    if (name == "falcon27")
        return ibmFalcon27();
    if (startsWith(name, "line:"))
        return linear(static_cast<int>(parseSize(name.substr(5))));
    if (startsWith(name, "ring:"))
        return ring(static_cast<int>(parseSize(name.substr(5))));
    if (startsWith(name, "grid:")) {
        const auto dims = split(name.substr(5), 'x');
        require(dims.size() == 2, "grid needs RxC");
        return grid(static_cast<int>(parseSize(dims[0])),
                    static_cast<int>(parseSize(dims[1])));
    }
    throw VaqError("unknown machine: " + name);
}

} // namespace vaq::topology

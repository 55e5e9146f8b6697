#include "graph/reliability_matrix.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "graph/shortest_path.hpp"

namespace vaq::graph
{

ReliabilityMatrix::ReliabilityMatrix(const WeightedGraph &costs,
                                     std::uint64_t snapshot_hash)
    : _numNodes(costs.numNodes()), _snapshotHash(snapshot_hash)
{
    const auto n = static_cast<std::size_t>(_numNodes);
    _dist.assign(n, std::vector<double>(n, kUnreachable));
    _next.assign(n, std::vector<int>(n, -1));

    for (std::size_t v = 0; v < n; ++v)
        _dist[v][v] = 0.0;
    for (const WeightedEdge &e : costs.edges()) {
        require(e.weight >= 0.0,
                "reliability matrix requires non-negative weights");
        const auto a = static_cast<std::size_t>(e.a);
        const auto b = static_cast<std::size_t>(e.b);
        _dist[a][b] = e.weight;
        _dist[b][a] = e.weight;
        _next[a][b] = e.b;
        _next[b][a] = e.a;
    }

    // Floyd-Warshall with next-hop propagation. Strict-improvement
    // updates keep the sweep deterministic: on exact ties the path
    // through the smallest intermediate node wins.
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            const double dik = _dist[i][k];
            if (dik == kUnreachable)
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                const double dkj = _dist[k][j];
                if (dkj == kUnreachable)
                    continue;
                const double alt = dik + dkj;
                if (alt < _dist[i][j]) {
                    _dist[i][j] = alt;
                    _next[i][j] = _next[i][k];
                }
            }
        }
    }

    // Re-accumulate each distance along its next-hop chain so the
    // stored doubles match what Dijkstra's left-to-right relaxation
    // produces for the same path (Floyd-Warshall's divide-and-sum
    // association can differ in the last ULP).
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j || _next[i][j] < 0)
                continue;
            double sum = 0.0;
            int at = static_cast<int>(i);
            while (at != static_cast<int>(j)) {
                const int hop = _next[static_cast<std::size_t>(at)]
                                     [j];
                sum += costs.weight(at, hop);
                at = hop;
            }
            _dist[i][j] = sum;
        }
    }
}

double
ReliabilityMatrix::distance(int a, int b) const
{
    require(a >= 0 && a < _numNodes && b >= 0 && b < _numNodes,
            "reliability matrix node out of range");
    return _dist[static_cast<std::size_t>(a)]
                [static_cast<std::size_t>(b)];
}

bool
ReliabilityMatrix::reachable(int a, int b) const
{
    return distance(a, b) != kUnreachable;
}

int
ReliabilityMatrix::nextHop(int a, int b) const
{
    require(a >= 0 && a < _numNodes && b >= 0 && b < _numNodes,
            "reliability matrix node out of range");
    return _next[static_cast<std::size_t>(a)]
                [static_cast<std::size_t>(b)];
}

std::vector<int>
ReliabilityMatrix::path(int a, int b) const
{
    require(reachable(a, b),
            "destination unreachable in reliability matrix");
    std::vector<int> nodes{a};
    while (a != b) {
        a = _next[static_cast<std::size_t>(a)]
                 [static_cast<std::size_t>(b)];
        VAQ_ASSERT(a >= 0, "broken next-hop chain");
        nodes.push_back(a);
    }
    return nodes;
}

} // namespace vaq::graph

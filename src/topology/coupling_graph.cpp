#include "topology/coupling_graph.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"
#include "common/hashing.hpp"

namespace vaq::topology
{

namespace
{

/** Canonical (a<b) key for the link lookup map. */
long
linkKey(int num_qubits, PhysQubit a, PhysQubit b)
{
    if (a > b)
        std::swap(a, b);
    return static_cast<long>(a) * num_qubits + b;
}

} // namespace

CouplingGraph::CouplingGraph(std::string name, int num_qubits,
                             const std::vector<Link> &links)
    : _name(std::move(name)),
      _numQubits(num_qubits),
      _adjacency(static_cast<std::size_t>(num_qubits))
{
    require(num_qubits > 0, "coupling graph needs at least one qubit");
    _links.reserve(links.size());
    for (const Link &raw : links) {
        Link link{std::min(raw.a, raw.b), std::max(raw.a, raw.b)};
        checkNode(link.a);
        checkNode(link.b);
        require(link.a != link.b, "self-loop link rejected");
        const long key = linkKey(_numQubits, link.a, link.b);
        require(_linkLookup.find(key) == _linkLookup.end(),
                "duplicate link rejected");
        _linkLookup.emplace(key, _links.size());
        _links.push_back(link);
        _adjacency[static_cast<std::size_t>(link.a)].push_back(link.b);
        _adjacency[static_cast<std::size_t>(link.b)].push_back(link.a);
    }
    for (auto &neighbors : _adjacency)
        std::sort(neighbors.begin(), neighbors.end());

    // All-pairs hop counts, one BFS per source.
    const auto n = static_cast<std::size_t>(_numQubits);
    _hops.assign(n, std::vector<int>(n, -1));
    for (std::size_t src = 0; src < n; ++src) {
        auto &dist = _hops[src];
        dist[src] = 0;
        std::queue<PhysQubit> frontier;
        frontier.push(static_cast<PhysQubit>(src));
        while (!frontier.empty()) {
            const PhysQubit u = frontier.front();
            frontier.pop();
            for (PhysQubit v : _adjacency[static_cast<std::size_t>(u)]) {
                auto &dv = dist[static_cast<std::size_t>(v)];
                if (dv < 0) {
                    dv = dist[static_cast<std::size_t>(u)] + 1;
                    frontier.push(v);
                }
            }
        }
    }
}

void
CouplingGraph::checkNode(PhysQubit q) const
{
    require(q >= 0 && q < _numQubits,
            "physical qubit index out of range");
}

bool
CouplingGraph::coupled(PhysQubit a, PhysQubit b) const
{
    checkNode(a);
    checkNode(b);
    if (a == b)
        return false;
    return _linkLookup.find(linkKey(_numQubits, a, b)) !=
           _linkLookup.end();
}

std::size_t
CouplingGraph::linkIndex(PhysQubit a, PhysQubit b) const
{
    checkNode(a);
    checkNode(b);
    const auto it = _linkLookup.find(linkKey(_numQubits, a, b));
    if (it == _linkLookup.end()) {
        throw VaqError("qubits " + std::to_string(a) + " and " +
                       std::to_string(b) + " are not coupled on " +
                       _name);
    }
    return it->second;
}

const std::vector<PhysQubit> &
CouplingGraph::neighbors(PhysQubit q) const
{
    checkNode(q);
    return _adjacency[static_cast<std::size_t>(q)];
}

std::size_t
CouplingGraph::degree(PhysQubit q) const
{
    return neighbors(q).size();
}

bool
CouplingGraph::isConnected() const
{
    for (int d : _hops[0]) {
        if (d < 0)
            return false;
    }
    return true;
}

CouplingGraph
CouplingGraph::inducedSubgraph(
    const std::vector<PhysQubit> &nodes) const
{
    require(!nodes.empty(), "induced subgraph needs nodes");
    std::vector<int> position(static_cast<std::size_t>(_numQubits),
                              -1);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        checkNode(nodes[i]);
        require(position[static_cast<std::size_t>(nodes[i])] < 0,
                "duplicate node in induced subgraph");
        position[static_cast<std::size_t>(nodes[i])] =
            static_cast<int>(i);
    }

    std::vector<Link> sublinks;
    for (const Link &link : _links) {
        const int pa = position[static_cast<std::size_t>(link.a)];
        const int pb = position[static_cast<std::size_t>(link.b)];
        if (pa >= 0 && pb >= 0)
            sublinks.push_back(Link{pa, pb});
    }
    return CouplingGraph(_name + "-sub",
                         static_cast<int>(nodes.size()), sublinks);
}

std::uint64_t
CouplingGraph::topologyHash() const
{
    std::uint64_t h = kHashSeed;
    h = hashCombine(h, static_cast<std::uint64_t>(_numQubits));
    for (const Link &link : _links) {
        h = hashCombine(h, static_cast<std::uint64_t>(link.a));
        h = hashCombine(h, static_cast<std::uint64_t>(link.b));
    }
    return h;
}

} // namespace vaq::topology

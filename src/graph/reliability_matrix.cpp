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
    // next[i * n + j]: first node after i on the cheapest i-j path.
    std::vector<int> next(n * n, -1);

    for (std::size_t v = 0; v < n; ++v)
        _dist[v][v] = 0.0;
    for (const WeightedEdge &e : costs.edges()) {
        require(e.weight >= 0.0,
                "reliability matrix requires non-negative weights");
        const auto a = static_cast<std::size_t>(e.a);
        const auto b = static_cast<std::size_t>(e.b);
        _dist[a][b] = e.weight;
        _dist[b][a] = e.weight;
        next[a * n + b] = e.b;
        next[b * n + a] = e.a;
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
                    next[i * n + j] = next[i * n + k];
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
            if (i == j || next[i * n + j] < 0)
                continue;
            double sum = 0.0;
            int at = static_cast<int>(i);
            while (at != static_cast<int>(j)) {
                const int hop = next[static_cast<std::size_t>(at) * n + j];
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

} // namespace vaq::graph

/**
 * @file
 * All-pairs most-reliable-path cost table.
 *
 * The paper's reliability matrix (Section 5) is a fixed function of
 * one calibration snapshot: with edge weights set to -log(link
 * success probability), the cheapest a-b path is the
 * maximum-reliability SWAP route, and the whole table can be built
 * once per snapshot (Floyd-Warshall) instead of re-running Dijkstra
 * for every routing query. Noise-adaptive compilers recompile per
 * calibration cycle, so one table serves *every* circuit compiled
 * against that cycle: core::CalibrationContext builds it once per
 * snapshot and shares it.
 *
 * Bit-compatibility note: the Floyd-Warshall sweep also tracks each
 * cheapest path's next hop, and the final distances are
 * re-accumulated by walking each next-hop chain and summing edge
 * weights left-to-right — the same association order Dijkstra uses —
 * so consumers that previously called allPairsDistances() observe
 * identical doubles. The next-hop table is dropped once the
 * distances are final.
 */
#ifndef VAQ_GRAPH_RELIABILITY_MATRIX_HPP
#define VAQ_GRAPH_RELIABILITY_MATRIX_HPP

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace vaq::graph
{

/**
 * Immutable all-pairs shortest-path table over a cost-weighted
 * graph. Safe to share across threads once constructed.
 */
class ReliabilityMatrix
{
  public:
    /**
     * Build the table from `costs` (all weights must be
     * non-negative). `snapshot_hash` identifies the calibration
     * data the weights were derived from; it is carried along so
     * consumers can audit what they were handed.
     */
    explicit ReliabilityMatrix(const WeightedGraph &costs,
                               std::uint64_t snapshot_hash = 0);

    /** Node count. */
    int numNodes() const { return _numNodes; }

    /** Cost of the cheapest a-b path (kUnreachable when none). */
    double distance(int a, int b) const;

    /** Full distance table, indexed [from][to]. */
    const std::vector<std::vector<double>> &distances() const
    {
        return _dist;
    }

    /** Hash of the calibration snapshot this table was built for. */
    std::uint64_t snapshotHash() const { return _snapshotHash; }

  private:
    int _numNodes;
    std::uint64_t _snapshotHash;
    std::vector<std::vector<double>> _dist;
};

} // namespace vaq::graph

#endif // VAQ_GRAPH_RELIABILITY_MATRIX_HPP

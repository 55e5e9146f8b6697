/**
 * @file
 * Search for the strongest connected k-node subgraph.
 *
 * Step 1 of the paper's Algorithm 2 (VQA): "Find the sub-graph SG_k
 * with k nodes that has [the] highest aggregate node strength (ANS),
 * ANS = sum_i d_i". Program qubits are then placed on that subgraph.
 *
 * Two scoring modes are provided as an ablation point:
 *  - FullStrength: ANS exactly as the paper defines it — each member
 *    contributes its node strength in the *full* machine graph.
 *  - InducedWeight: sum of link weights *inside* the subgraph, which
 *    only credits links the mapped program can actually use.
 */
#ifndef VAQ_GRAPH_SUBGRAPH_HPP
#define VAQ_GRAPH_SUBGRAPH_HPP

#include <cstddef>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace vaq::graph
{

/** Scoring rule for subgraph search. */
enum class SubgraphScore
{
    FullStrength, ///< ANS with full-graph node strengths (paper)
    InducedWeight ///< total weight of links inside the subgraph
};

/** Score a node set under the given rule (set need not be connected). */
double scoreSubgraph(const WeightedGraph &graph,
                     const std::vector<int> &nodes,
                     SubgraphScore score);

/** True when the induced subgraph over `nodes` is connected. */
bool isConnectedSubset(const WeightedGraph &graph,
                       const std::vector<int> &nodes);

/**
 * Best connected k-node subgraph under `score`.
 *
 * Uses exhaustive enumeration of connected k-subsets when
 * C(n, k) <= 2.5e5 or n <= 20 (every IBM-Q20 case), and falls back to
 * one greedy growth per seed node (no local search) otherwise.
 * Returns node ids in ascending order.
 *
 * The enumeration allocates its buffers once per call and nothing
 * per candidate: one walk keeps the current set, in-set and forbidden
 * byte maps and one frontier arena whose per-level segments are
 * appended and truncated. It visits subsets root by root (each from
 * its minimum node id) in a fixed order. Each candidate is scored as
 * scoreSubgraph does, with the same summation order (FullStrength in
 * visit order, InducedWeight in edge order), so the same doubles
 * result, and the first candidate of the highest score wins (strict
 * `>`): ties keep resolving to the same region.
 *
 * @throws VaqError when k is out of range or no connected k-subset
 *         exists.
 */
std::vector<int> bestConnectedSubgraph(
    const WeightedGraph &graph, std::size_t k,
    SubgraphScore score = SubgraphScore::FullStrength);

/**
 * The `count` best-scoring connected k-node subgraphs, best first
 * (fewer are returned when fewer exist). Uses the same exhaustive /
 * greedy strategy split as bestConnectedSubgraph; each candidate is
 * scored on its sorted node list and ties rank by that list. Used by
 * the machine-partitioning study to rank candidate regions.
 */
std::vector<std::vector<int>> topConnectedSubgraphs(
    const WeightedGraph &graph, std::size_t k, std::size_t count,
    SubgraphScore score = SubgraphScore::FullStrength);

} // namespace vaq::graph

#endif // VAQ_GRAPH_SUBGRAPH_HPP

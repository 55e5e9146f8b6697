/**
 * @file
 * A* search for the per-layer SWAP set (step 5 of the paper's
 * Section 4.5 / Algorithm 1).
 *
 * Given the current layout and the set of two-qubit gates of one
 * dependence layer, search over layouts (actions = one SWAP on any
 * link) for the cheapest SWAP sequence making *every* gate of the
 * layer executable. The edge cost is the active cost model's
 * swapCost — uniform for the baseline, -log reliability for VQM —
 * and the heuristic is the sum of per-gate adjacency lower bounds.
 *
 * The search is capped: when the node budget is exhausted (deep
 * layers on large machines), the caller falls back to per-gate
 * movement planning, preserving the locality-first behaviour of the
 * baseline compiler.
 *
 * Storage: every visited layout is one row of n std::int16_t cells
 * in a single flat pool; a node is {g, parent index, SWAP}; the
 * visited set is an open-addressing table of node indices that
 * hashes and compares the pooled rows; an open-list entry is
 * (f, g, node index). Entries pop in (f, g, layout) order, the
 * layout compared lexicographically: the pops, stale skips and the
 * stop rule are those of a search keyed on whole layouts. Heap
 * allocations grow with the log of the nodes visited. Machines up
 * to 32767 qubits fit a cell.
 */
#ifndef VAQ_CORE_ASTAR_ROUTER_HPP
#define VAQ_CORE_ASTAR_ROUTER_HPP

#include <optional>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/layout.hpp"
#include "core/movement_planner.hpp"

namespace vaq::core
{

/** One program-qubit pair that must become adjacent. */
using ProgPair = std::pair<circuit::Qubit, circuit::Qubit>;

/** A SWAP sequence over physical links. */
using SwapSequence =
    std::vector<std::pair<topology::PhysQubit, topology::PhysQubit>>;

/**
 * Find a low-cost SWAP sequence after which every pair in `pairs`
 * is adjacent under the updated layout.
 *
 * @param graph Machine connectivity.
 * @param cost Active cost model.
 * @param planner Movement planner used for heuristic bounds.
 * @param layout Current (complete or partial) layout; the layout is
 *        not modified.
 * @param pairs Program-qubit pairs of one dependence layer.
 * @param node_cap Maximum number of A* expansions before giving up.
 * @return The SWAP sequence, or nullopt when the budget ran out.
 */
std::optional<SwapSequence>
planLayerSwaps(const topology::CouplingGraph &graph,
               const CostModel &cost,
               const MovementPlanner &planner, const Layout &layout,
               const std::vector<ProgPair> &pairs,
               std::size_t node_cap);

} // namespace vaq::core

#endif // VAQ_CORE_ASTAR_ROUTER_HPP

/**
 * @file
 * CalibrationContext: everything the compile derives from one
 * calibration snapshot on one machine, built once and shared.
 *
 * The paper compiles each program against one calibration snapshot,
 * and VQA's strength graph and VQM's reliability routes (Sections
 * 5-6) are pure functions of (machine, snapshot). A context owns
 * copies of both plus the tables derived from them: the all-pairs
 * reliability-path matrix the allocators rank locations with
 * (built in the constructor) and one lazily filled movement-plan
 * table per (cost kind, MAH) the routers draw SWAP routes from.
 *
 * Contexts are immutable once built and held by
 * std::shared_ptr<const CalibrationContext>; whoever owns the
 * snapshot owns the context (a BatchCompiler call, a vaqd epoch, a
 * fleet backend), so a new calibration cycle simply builds a new
 * one and nothing is ever invalidated. No compile result holds a
 * context.
 *
 * The tables change how often results are computed, never what is
 * computed: graph::allPairsDistances and MovementPlanner's
 * per-query search are the reference, and
 * tests/core/test_calibration_context.cpp and
 * tests/core/test_router_differential.cpp hold them bit-identical.
 */
#ifndef VAQ_CORE_COMPILE_CACHE_HPP
#define VAQ_CORE_COMPILE_CACHE_HPP

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "calibration/snapshot.hpp"
#include "core/cost_model.hpp"
#include "core/movement_planner.hpp"
#include "graph/reliability_matrix.hpp"
#include "graph/weighted_graph.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/**
 * The -log success-probability cost graph over the machine's links:
 * weight(a, b) = linkReliabilityCost(e, floor). Shortest paths on
 * it are maximum-reliability SWAP routes (Section 5.3); the
 * allocators read it and ReliabilityCost prices links the same way.
 */
graph::WeightedGraph
reliabilityCostGraph(const topology::CouplingGraph &graph,
                     const calibration::Snapshot &snapshot,
                     double floor = 1e-6);

/** One immutable per-(machine, snapshot) compile context.
 *  Thread-safe: any number of compiles may share one. */
class CalibrationContext
{
  public:
    /** Copy `graph` and `snapshot` and build the reliability
     *  matrix. @throws VaqError when the snapshot's shape does not
     *  match the machine. */
    CalibrationContext(const topology::CouplingGraph &graph,
                       const calibration::Snapshot &snapshot);

    CalibrationContext(const CalibrationContext &) = delete;
    CalibrationContext &operator=(const CalibrationContext &) = delete;

    const topology::CouplingGraph &graph() const { return _graph; }
    const calibration::Snapshot &snapshot() const { return _snapshot; }

    /** The all-pairs most-reliable-path matrix over
     *  reliabilityCostGraph(graph(), snapshot()); each call counts
     *  one matrix hit in pathCacheStats(). */
    const graph::ReliabilityMatrix &reliability() const;

    /**
     * The movement-plan table for (kind, mah), created on first
     * request; every later request, from any thread, gets the same
     * table.
     */
    const PlanCache &plans(CostKind kind, int mah) const;

  private:
    struct PlanTable
    {
        CostKind kind;
        int mah;
        std::unique_ptr<const PlanCache> table;
    };

    topology::CouplingGraph _graph;
    calibration::Snapshot _snapshot;
    graph::ReliabilityMatrix _reliability;
    mutable std::mutex _plansMutex;
    mutable std::vector<PlanTable> _plans;
};

/** A no-op kept for callers that still signal a calibration
 *  push: contexts end with their owner, so there is nothing to
 *  drop. */
void invalidatePathCaches();

/**
 * Process-wide table counters for reporting. A miss is a matrix or
 * plan table built inside a context; a hit is an allocator read of
 * a context's matrix, or a route that reuses a context's existing
 * plan table.
 */
struct PathCacheStats
{
    std::size_t matrixHits = 0;
    std::size_t matrixMisses = 0;
    std::size_t planHits = 0;
    std::size_t planMisses = 0;
};

/** The counters accumulated since process start. */
PathCacheStats pathCacheStats();

} // namespace vaq::core

#endif // VAQ_CORE_COMPILE_CACHE_HPP

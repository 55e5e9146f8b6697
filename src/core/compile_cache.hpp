/**
 * @file
 * Process-wide compile caches shared across compiles and threads.
 *
 * Everything the routing layers derive from one calibration
 * snapshot — the all-pairs reliability-path matrix the allocators
 * rank locations with, and the movement-plan tables the routers
 * draw SWAP routes from — is a pure function of (machine,
 * snapshot, cost kind, MAH). Recomputing it per compile dominates
 * batch workloads where many circuits target the same calibration
 * cycle. The stores here hand every such compile one shared,
 * immutable copy, keyed on content hashes (CouplingGraph::
 * topologyHash, Snapshot::contentHash, CostModel::contentHash), and
 * drop all entries when a new calibration cycle is pushed via
 * invalidatePathCaches().
 *
 * The caches change how often results are computed, never what is
 * computed: with the toggle off, every consumer runs the original
 * per-query searches, and tests/core/test_router_differential.cpp
 * holds the two modes bit-identical.
 */
#ifndef VAQ_CORE_COMPILE_CACHE_HPP
#define VAQ_CORE_COMPILE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "calibration/snapshot.hpp"
#include "core/cost_model.hpp"
#include "core/movement_planner.hpp"
#include "graph/reliability_matrix.hpp"
#include "graph/weighted_graph.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/**
 * Effective path-cache state on this thread: the PathCacheScope
 * override installed by Mapper::map when one is active,
 * otherwise true. On, allocators read the cached reliability matrix
 * and mappers hand routers a shared plan table; off
 * (CompileOptions::cacheEnabled = false), every compile recomputes
 * from scratch exactly as the original per-query code path does.
 */
bool pathCacheEnabled();

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

/**
 * The all-pairs most-reliable-path matrix for (graph, snapshot),
 * built on first use and shared by every later caller with the
 * same topology and link-error content. Thread-safe.
 */
std::shared_ptr<const graph::ReliabilityMatrix>
sharedReliabilityMatrix(const topology::CouplingGraph &graph,
                        const calibration::Snapshot &snapshot);

/**
 * The movement-plan table for (graph, snapshot, kind, mah), built
 * lazily (per pair, on first query) and shared by every compile
 * whose cost model hashes identically. Thread-safe.
 */
std::shared_ptr<const PlanCache>
sharedPlanCache(const topology::CouplingGraph &graph,
                const calibration::Snapshot &snapshot, CostKind kind,
                int mah);

/**
 * Drop every cached matrix and plan table and bump the epoch —
 * call when a new calibration cycle arrives. In-flight compiles
 * holding shared_ptrs finish safely on the snapshot they started
 * with.
 */
void invalidatePathCaches();

/** Counters for reporting and tests. */
struct PathCacheStats
{
    std::size_t matrixHits = 0;
    std::size_t matrixMisses = 0;
    std::size_t matrixEntries = 0;
    std::size_t planHits = 0;
    std::size_t planMisses = 0;
    std::size_t planEntries = 0;
    /**
     * Calibration epoch as seen by each store. Both advance only
     * inside invalidatePathCaches(), so at rest they are equal;
     * they are bumped under separate locks, so a reader racing an
     * invalidation may observe matrixEpoch == planEpoch + 1 for
     * the duration of that call — never a larger gap, and never
     * planEpoch ahead of matrixEpoch.
     */
    std::uint64_t matrixEpoch = 0;
    std::uint64_t planEpoch = 0;
};

/** Snapshot of the process-wide cache counters. */
PathCacheStats pathCacheStats();

} // namespace vaq::core

#endif // VAQ_CORE_COMPILE_CACHE_HPP

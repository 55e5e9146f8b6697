/**
 * @file
 * CalibrationContext: the compile view of one inspected calibration
 * snapshot on one machine, built once and shared.
 *
 * The paper compiles each program against one calibration snapshot,
 * and VQA's strength graph and VQM's reliability routes (Sections
 * 5-6) are pure functions of (machine, snapshot). A context owns
 * copies of both, the snapshot's quarantine verdict (SnapshotHealth)
 * and the tables of what compiles map onto — the full machine for a
 * Clean snapshot, a nested context over the sanitized healthy region
 * for a Degraded one, nothing for a Rejected one: the all-pairs
 * reliability-path matrix the allocators rank locations with (built
 * in the constructor) and one lazily filled movement-plan table per
 * (cost kind, MAH) the routers draw SWAP routes from.
 *
 * Contexts are immutable once built and held by
 * std::shared_ptr<const CalibrationContext>; whoever owns the
 * snapshot inspects it once and owns the context (a BatchCompiler
 * call, a vaqd epoch, a fleet backend, a series-replay cycle), so a
 * new calibration cycle simply builds a new one and nothing is ever
 * invalidated. No compile result holds a context.
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
#include <optional>
#include <string>
#include <vector>

#include "calibration/sanitize.hpp"
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

/** How a compile treats the calibration snapshot it is given. */
enum class CalibrationHandling
{
    /** Use the snapshot as-is, no validate() — what Mapper::map
     *  assumes. */
    Trust,
    /** validate(); an invalid snapshot fails without attempting
     *  rescue. */
    Validate,
    /** validate(); an invalid snapshot is routed through the
     *  calibration quarantine (calibration/sanitize.hpp) and the
     *  compile lands in the healthy region, marked Degraded. */
    Sanitize,
};

/** What a snapshot turned out to be once inspected: the quarantine
 *  verdict every CalibrationContext carries. */
struct SnapshotHealth
{
    enum class Kind
    {
        Clean,    ///< passed validate() (or Trust), use as-is
        Degraded, ///< quarantined but usable (compile into region)
        Rejected, ///< unusable; every compile against it fails
    };

    Kind kind = Kind::Clean;
    /** Present iff kind == Degraded. */
    std::optional<calibration::SanitizedCalibration> sanitized;
    /** Quarantine summary or rejection reason. */
    std::string note;
};

/**
 * Inspect one snapshot under a calibration-handling mode. Trust
 * never validates (always Clean); Validate rejects invalid
 * snapshots with the validation message; Sanitize routes them
 * through the quarantine (telemetry emits the
 * calibration.quarantine.* counters).
 */
SnapshotHealth
inspectSnapshot(const calibration::Snapshot &snapshot,
                const topology::CouplingGraph &graph,
                CalibrationHandling handling,
                bool telemetry = false);

/** One immutable per-(machine, snapshot) compile context.
 *  Thread-safe: any number of compiles may share one. */
class CalibrationContext
{
  public:
    /** Copy `graph` and `snapshot` and build the tables `health`
     *  calls for. A Clean snapshot of another machine gets none:
     *  compiles against it fail with the shape error. */
    CalibrationContext(const topology::CouplingGraph &graph,
                       const calibration::Snapshot &snapshot,
                       SnapshotHealth health = {});

    /** A Clean context whose compiles map onto `region` of `graph`.
     *  @throws VaqError when the region is disconnected. */
    CalibrationContext(const topology::CouplingGraph &graph,
                       const calibration::Snapshot &snapshot,
                       const std::vector<topology::PhysQubit> &region);

    CalibrationContext(const CalibrationContext &) = delete;
    CalibrationContext &operator=(const CalibrationContext &) = delete;

    /** The machine, as given. */
    const topology::CouplingGraph &graph() const { return _graph; }
    /** The snapshot exactly as published (before any quarantine). */
    const calibration::Snapshot &snapshot() const { return _snapshot; }
    /** The quarantine verdict. */
    const SnapshotHealth &health() const { return _health; }

    /** The context over the region compiles map onto (qubit i of
     *  its graph is machine qubit regionQubits()[i]), or null when
     *  they map onto the full machine. */
    const CalibrationContext *region() const { return _region.get(); }
    const std::vector<topology::PhysQubit> &regionQubits() const
    {
        return _regionQubits;
    }

    /** Throws unless this context has tables of its own: the
     *  verdict's note (CalibrationError) when Rejected, else the
     *  shape error. */
    void requireTables() const;

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

    void buildRegion(const calibration::Snapshot &source,
                     const std::vector<topology::PhysQubit> &region);

    topology::CouplingGraph _graph;
    calibration::Snapshot _snapshot;
    SnapshotHealth _health;
    std::optional<graph::ReliabilityMatrix> _reliability;
    std::unique_ptr<const CalibrationContext> _region;
    std::vector<topology::PhysQubit> _regionQubits;
    mutable std::mutex _plansMutex;
    mutable std::vector<PlanTable> _plans;
};

/** inspectSnapshot() once, then the context for its verdict. */
std::shared_ptr<const CalibrationContext>
inspectCalibration(const topology::CouplingGraph &graph,
                   const calibration::Snapshot &snapshot,
                   CalibrationHandling handling,
                   bool telemetry = false);

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

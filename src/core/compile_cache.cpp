#include "core/compile_cache.hpp"

#include <atomic>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vaq::core
{

namespace
{

std::atomic<std::size_t> g_matrixHits{0};
std::atomic<std::size_t> g_matrixMisses{0};
std::atomic<std::size_t> g_planHits{0};
std::atomic<std::size_t> g_planMisses{0};

void
bump(std::atomic<std::size_t> &counter, std::string_view name)
{
    counter.fetch_add(1, std::memory_order_relaxed);
    obs::count(name);
}

} // namespace

graph::WeightedGraph
reliabilityCostGraph(const topology::CouplingGraph &graph,
                     const calibration::Snapshot &snapshot,
                     double floor)
{
    std::vector<graph::WeightedEdge> edges;
    edges.reserve(graph.linkCount());
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        edges.push_back(graph::WeightedEdge{
            link.a, link.b,
            linkReliabilityCost(snapshot.linkError(l), floor)});
    }
    return graph::WeightedGraph(graph.numQubits(), edges);
}

SnapshotHealth
inspectSnapshot(const calibration::Snapshot &snapshot,
                const topology::CouplingGraph &graph,
                CalibrationHandling handling, bool telemetry)
{
    SnapshotHealth health;
    if (handling == CalibrationHandling::Trust)
        return health;
    try {
        snapshot.validate();
    } catch (const VaqError &e) {
        if (handling == CalibrationHandling::Validate) {
            health.kind = SnapshotHealth::Kind::Rejected;
            health.note = e.message();
            return health;
        }
        obs::Span sanitizeSpan("batch.sanitize", telemetry);
        calibration::SanitizedCalibration sanitized =
            calibration::sanitize(snapshot, graph);
        health.note = sanitized.report.summary();
        if (telemetry) {
            obs::count("calibration.quarantine.snapshots");
            obs::count("calibration.quarantine.qubits",
                       sanitized.report.qubits.size());
            obs::count("calibration.quarantine.links",
                       sanitized.report.links.size());
        }
        if (sanitized.usable) {
            health.kind = SnapshotHealth::Kind::Degraded;
            health.sanitized = std::move(sanitized);
        } else {
            health.kind = SnapshotHealth::Kind::Rejected;
            health.note +=
                "; healthy region too small to compile for";
            if (telemetry)
                obs::count("calibration.quarantine.rejected");
        }
    }
    return health;
}

CalibrationContext::CalibrationContext(
    const topology::CouplingGraph &graph,
    const calibration::Snapshot &snapshot,
    const std::vector<topology::PhysQubit> &region)
    : _graph(graph), _snapshot(snapshot)
{
    buildRegion(_snapshot, region);
}

CalibrationContext::CalibrationContext(
    const topology::CouplingGraph &graph,
    const calibration::Snapshot &snapshot, SnapshotHealth health)
    : _graph(graph), _snapshot(snapshot), _health(std::move(health))
{
    switch (_health.kind) {
    case SnapshotHealth::Kind::Clean:
        // A snapshot of another machine keeps no tables, so each
        // compile against it fails on its own (requireTables).
        if (_snapshot.numQubits() == _graph.numQubits() &&
            _snapshot.numLinks() == _graph.linkCount()) {
            _reliability.emplace(reliabilityCostGraph(_graph, _snapshot),
                                 _snapshot.contentHash());
            bump(g_matrixMisses, "cache.matrix.misses");
        }
        break;
    case SnapshotHealth::Kind::Degraded:
        buildRegion(_health.sanitized->snapshot,
                    _health.sanitized->healthyRegion);
        break;
    case SnapshotHealth::Kind::Rejected:
        break;
    }
}

void
CalibrationContext::buildRegion(
    const calibration::Snapshot &source,
    const std::vector<topology::PhysQubit> &region)
{
    // The region-restricted machine and its calibration view.
    const topology::CouplingGraph sub = _graph.inducedSubgraph(region);
    require(sub.isConnected(), "partition region is disconnected");

    calibration::Snapshot subSnapshot(sub);
    subSnapshot.durations = source.durations;
    for (std::size_t i = 0; i < region.size(); ++i) {
        subSnapshot.qubit(static_cast<int>(i)) =
            source.qubit(region[i]);
    }
    for (std::size_t l = 0; l < sub.linkCount(); ++l) {
        const topology::Link &link = sub.links()[l];
        subSnapshot.setLinkError(
            l, source.linkError(
                   _graph, region[static_cast<std::size_t>(link.a)],
                   region[static_cast<std::size_t>(link.b)]));
    }
    _region = std::make_unique<const CalibrationContext>(sub, subSnapshot);
    _regionQubits = region;
}

void
CalibrationContext::requireTables() const
{
    if (_health.kind == SnapshotHealth::Kind::Rejected)
        throw CalibrationError(_health.note);
    require(_reliability.has_value(),
            "snapshot does not match machine shape");
}

const graph::ReliabilityMatrix &
CalibrationContext::reliability() const
{
    requireTables();
    bump(g_matrixHits, "cache.matrix.hits");
    return *_reliability;
}

const PlanCache &
CalibrationContext::plans(CostKind kind, int mah) const
{
    // A compile asks for at most a handful of (kind, MAH) pairs, so
    // a short scan beats a map. The table is built under the lock;
    // its cells fill lazily afterwards under their own once_flags.
    const std::lock_guard<std::mutex> lock(_plansMutex);
    for (const PlanTable &entry : _plans) {
        if (entry.kind == kind && entry.mah == mah) {
            bump(g_planHits, "cache.plan.hits");
            return *entry.table;
        }
    }
    bump(g_planMisses, "cache.plan.misses");
    _plans.push_back(
        {kind, mah,
         std::make_unique<const PlanCache>(_graph, _snapshot, kind,
                                           mah)});
    return *_plans.back().table;
}

std::shared_ptr<const CalibrationContext>
inspectCalibration(const topology::CouplingGraph &graph,
                   const calibration::Snapshot &snapshot,
                   CalibrationHandling handling, bool telemetry)
{
    return std::make_shared<const CalibrationContext>(
        graph, snapshot,
        inspectSnapshot(snapshot, graph, handling, telemetry));
}

void
invalidatePathCaches()
{
}

PathCacheStats
pathCacheStats()
{
    return {g_matrixHits.load(std::memory_order_relaxed),
            g_matrixMisses.load(std::memory_order_relaxed),
            g_planHits.load(std::memory_order_relaxed),
            g_planMisses.load(std::memory_order_relaxed)};
}

} // namespace vaq::core

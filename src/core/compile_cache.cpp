#include "core/compile_cache.hpp"

#include <atomic>

#include "common/error.hpp"
#include "obs/metrics.hpp"

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

/** reliabilityCostGraph, after checking the snapshot fits the
 *  machine (the NoiseModel check and message). */
graph::WeightedGraph
shapedCostGraph(const topology::CouplingGraph &graph,
                const calibration::Snapshot &snapshot)
{
    require(snapshot.numQubits() == graph.numQubits() &&
                snapshot.numLinks() == graph.linkCount(),
            "snapshot does not match machine shape");
    return reliabilityCostGraph(graph, snapshot);
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

CalibrationContext::CalibrationContext(
    const topology::CouplingGraph &graph,
    const calibration::Snapshot &snapshot)
    : _graph(graph),
      _snapshot(snapshot),
      _reliability(shapedCostGraph(_graph, _snapshot),
                   _snapshot.contentHash())
{
    bump(g_matrixMisses, "cache.matrix.misses");
}

const graph::ReliabilityMatrix &
CalibrationContext::reliability() const
{
    bump(g_matrixHits, "cache.matrix.hits");
    return _reliability;
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

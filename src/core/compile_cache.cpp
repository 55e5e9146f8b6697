#include "core/compile_cache.hpp"

#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "core/compile_options.hpp"
#include "obs/metrics.hpp"

namespace vaq::core
{

namespace
{

/** Per-thread path-cache state; PathCacheScope saves and restores
 *  it. On unless a scope on this thread turned it off. */
thread_local bool t_pathCacheEnabled = true;

/** Process-wide matrix store (epoch + LRU inside). */
graph::ReliabilityMatrixCache &
matrixCache()
{
    static graph::ReliabilityMatrixCache cache;
    return cache;
}

/** Plan-table store: few entries (one per kind/MAH/snapshot). */
struct PlanStore
{
    struct Entry
    {
        std::shared_ptr<const PlanCache> table;
        std::uint64_t lastUsed = 0;
    };

    static constexpr std::size_t kCapacity = 64;

    std::mutex mutex;
    std::unordered_map<std::uint64_t, Entry> entries;
    std::uint64_t useCounter = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Bumped by invalidatePathCaches(), in lock-step with the
     *  matrix cache's epoch (see PathCacheStats::planEpoch). */
    std::uint64_t epoch = 0;
};

PlanStore &
planStore()
{
    static PlanStore store;
    return store;
}

/** Key a snapshot's link-error content on a machine. */
std::uint64_t
costGraphKey(const topology::CouplingGraph &graph,
             const graph::WeightedGraph &costs)
{
    std::uint64_t h = hashCombine(kHashSeed, graph.topologyHash());
    for (const auto &edge : costs.edges())
        h = hashCombine(h, edge.weight);
    return h;
}

} // namespace

bool
pathCacheEnabled()
{
    return t_pathCacheEnabled;
}

PathCacheScope::PathCacheScope(bool enabled)
    : _previous(t_pathCacheEnabled)
{
    t_pathCacheEnabled = enabled;
}

PathCacheScope::~PathCacheScope()
{
    t_pathCacheEnabled = _previous;
}

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

std::shared_ptr<const graph::ReliabilityMatrix>
sharedReliabilityMatrix(const topology::CouplingGraph &graph,
                        const calibration::Snapshot &snapshot)
{
    const graph::WeightedGraph costs =
        reliabilityCostGraph(graph, snapshot);
    const std::uint64_t key = costGraphKey(graph, costs);
    return matrixCache().obtain(key, [&] {
        return std::make_shared<const graph::ReliabilityMatrix>(
            costs, snapshot.contentHash());
    });
}

std::shared_ptr<const PlanCache>
sharedPlanCache(const topology::CouplingGraph &graph,
                const calibration::Snapshot &snapshot, CostKind kind,
                int mah)
{
    const std::unique_ptr<CostModel> cost =
        makeCostModel(kind, graph, snapshot);
    std::uint64_t key = hashCombine(kHashSeed, graph.topologyHash());
    key = hashCombine(key, cost->contentHash());
    key = hashCombine(key, static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(mah)));

    PlanStore &store = planStore();
    const std::lock_guard<std::mutex> lock(store.mutex);
    ++store.useCounter;
    const auto it = store.entries.find(key);
    if (it != store.entries.end()) {
        ++store.hits;
        it->second.lastUsed = store.useCounter;
        obs::count("cache.plan.hits");
        return it->second.table;
    }
    ++store.misses;
    obs::count("cache.plan.misses");
    if (store.entries.size() >= PlanStore::kCapacity) {
        auto victim = store.entries.begin();
        for (auto e = store.entries.begin();
             e != store.entries.end(); ++e) {
            if (e->second.lastUsed < victim->second.lastUsed)
                victim = e;
        }
        store.entries.erase(victim);
        obs::count("cache.plan.evictions");
    }
    auto table =
        std::make_shared<const PlanCache>(graph, snapshot, kind, mah);
    store.entries.emplace(key,
                          PlanStore::Entry{table, store.useCounter});
    return table;
}

void
invalidatePathCaches()
{
    // The matrix cache owns the only other epoch counter, and this
    // is the only call site of either invalidate — so the two
    // epochs cannot drift apart at rest. The plan store's epoch is
    // bumped alongside its clear to keep that invariant observable
    // (PathCacheStats reports both).
    matrixCache().invalidate();
    PlanStore &store = planStore();
    const std::lock_guard<std::mutex> lock(store.mutex);
    store.entries.clear();
    ++store.epoch;
}

PathCacheStats
pathCacheStats()
{
    PathCacheStats stats;
    stats.matrixHits = matrixCache().hits();
    stats.matrixMisses = matrixCache().misses();
    stats.matrixEntries = matrixCache().size();
    stats.matrixEpoch = matrixCache().epoch();
    PlanStore &store = planStore();
    const std::lock_guard<std::mutex> lock(store.mutex);
    stats.planHits = store.hits;
    stats.planMisses = store.misses;
    stats.planEntries = store.entries.size();
    stats.planEpoch = store.epoch;
    VAQ_ASSERT(stats.planEpoch <= stats.matrixEpoch,
               "plan-cache epoch ran ahead of the matrix epoch");
    return stats;
}

} // namespace vaq::core

/**
 * @file
 * BatchCompiler x ArtifactStore integration: warmed batches are
 * served from the store bit-identically at every thread count, a
 * calibration-series replay recompiles only the circuits whose
 * touched hardware actually drifted (the delta-recompilation
 * acceptance test), and damaged store files never abort a batch.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/dataflow.hpp"
#include "circuit/qasm.hpp"
#include "core/batch_compiler.hpp"
#include "core/mapper.hpp"
#include "obs/metrics.hpp"
#include "store/adapter.hpp"
#include "store/artifact_store.hpp"
#include "store_test_support.hpp"

namespace vaq::store
{
namespace
{

using core::BatchCompiler;
using core::BatchOptions;
using core::BatchResult;
using core::JobStatus;

// The adapter borrows its store and graph, so it refuses a
// temporary of either.
static_assert(std::is_constructible_v<ArtifactCacheAdapter,
                                      ArtifactStore &,
                                      const topology::CouplingGraph &,
                                      core::PolicySpec>);
static_assert(!std::is_constructible_v<ArtifactCacheAdapter,
                                       ArtifactStore,
                                       const topology::CouplingGraph &,
                                       core::PolicySpec>);
static_assert(!std::is_constructible_v<ArtifactCacheAdapter,
                                       ArtifactStore &,
                                       topology::CouplingGraph,
                                       core::PolicySpec>);

/** Hardware a mapped circuit depends on. */
struct TouchedSets
{
    std::set<int> qubits;
    std::set<std::size_t> links;

    bool containsQubit(int q) const { return qubits.count(q) > 0; }
    bool containsLink(std::size_t l) const
    {
        return links.count(l) > 0;
    }
};

TouchedSets
touchedOf(const core::MappedCircuit &mapped,
          const topology::CouplingGraph &graph)
{
    TouchedSets t;
    const analysis::DataflowAnalysis dataflow(mapped.physical);
    for (int q = 0; q < mapped.physical.numQubits(); ++q) {
        if (dataflow.chain(q).touched())
            t.qubits.insert(q);
    }
    for (const circuit::Gate &g : mapped.physical.gates()) {
        if (g.isTwoQubit())
            t.links.insert(graph.linkIndex(g.q0, g.q1));
    }
    return t;
}

/** Everything observable about a result, for bit-identity checks. */
std::string
fingerprint(const BatchResult &r)
{
    return std::to_string(r.circuit) + "/" +
           std::to_string(r.snapshot) + "/" +
           core::jobStatusName(r.status) + "/" + r.policyUsed +
           "/" + std::to_string(r.mapped.insertedSwaps) + "/" +
           std::to_string(r.analyticPst) + "\n" +
           circuit::toQasm(r.mapped.physical);
}

class BatchStoreTest : public ::testing::Test
{
  protected:
    BatchStoreTest() : graph(topology::linear(8))
    {
        circuits.push_back(test::storeTestCircuit(2));
        circuits.push_back(test::storeTestCircuit(3));
        calibration::Snapshot base = test::uniformSnapshot(graph);
        for (int q = 0; q < graph.numQubits(); ++q) {
            base.qubit(q).readoutError = 0.01 + 0.002 * q;
            base.qubit(q).error1q = 0.002 + 0.0003 * q;
        }
        for (std::size_t l = 0; l < graph.linkCount(); ++l)
            base.setLinkError(
                l, 0.02 + 0.004 * static_cast<double>(l));
        snapshots.push_back(base);
    }

    BatchOptions
    optionsWith(core::ArtifactCacheHook *cache,
                std::size_t threads = 1) const
    {
        BatchOptions options;
        options.compile.threads = threads;
        options.artifactCache = cache;
        return options;
    }

    std::vector<BatchResult>
    runCycle(const calibration::Snapshot &cycle,
             core::ArtifactCacheHook *cache,
             std::size_t threads = 1) const
    {
        const core::Mapper mapper = core::makeMapper(spec);
        BatchCompiler compiler(mapper, graph,
                               optionsWith(cache, threads));
        return compiler.compileAll(circuits, {cycle});
    }

    test::TempStoreDir dir;
    topology::CouplingGraph graph;
    std::vector<circuit::Circuit> circuits;
    std::vector<calibration::Snapshot> snapshots;
    core::PolicySpec spec{.name = "vqa+vqm"};
};

TEST_F(BatchStoreTest, WarmedBatchIsServedFromStoreBitIdentically)
{
    // Reference: no store at all.
    const std::vector<BatchResult> reference =
        runCycle(snapshots[0], nullptr);

    ArtifactStore store(StoreOptions{.directory = dir.str()});
    ArtifactCacheAdapter cache(store, graph, spec);
    const std::vector<BatchResult> cold =
        runCycle(snapshots[0], &cache);
    ASSERT_EQ(cold.size(), reference.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_FALSE(cold[i].fromStore);
        EXPECT_EQ(fingerprint(cold[i]), fingerprint(reference[i]));
    }
    EXPECT_EQ(store.stats().writes, circuits.size());

    // Same process, warm store: everything hits, zero compiles.
    const std::vector<BatchResult> warm =
        runCycle(snapshots[0], &cache);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].fromStore);
        EXPECT_EQ(warm[i].attempts, 0);
        EXPECT_EQ(warm[i].status, JobStatus::Ok);
        EXPECT_EQ(fingerprint(warm[i]), fingerprint(reference[i]));
    }

    // New process (fresh store object warm-started from disk).
    ArtifactStore reopened(StoreOptions{.directory = dir.str()});
    ArtifactCacheAdapter reopenedCache(reopened, graph, spec);
    const std::vector<BatchResult> restarted =
        runCycle(snapshots[0], &reopenedCache);
    for (std::size_t i = 0; i < restarted.size(); ++i) {
        EXPECT_TRUE(restarted[i].fromStore);
        EXPECT_EQ(fingerprint(restarted[i]),
                  fingerprint(reference[i]));
    }
}

TEST_F(BatchStoreTest, AdapterRecordsOnlyFreshOkCompiles)
{
    ArtifactStore store(StoreOptions{}); // memory-only
    ArtifactCacheAdapter cache(store, graph, spec);
    const std::vector<BatchResult> fresh =
        runCycle(snapshots[0], nullptr);
    ASSERT_EQ(fresh[0].status, JobStatus::Ok);

    // A store hit, a Degraded result and a Failed one are each
    // offered to the adapter and ignored.
    core::CompileResult hit = fresh[0];
    hit.fromStore = true;
    hit.attempts = 0;
    core::CompileResult degraded = fresh[0];
    degraded.status = JobStatus::Degraded;
    degraded.note = "fell back to policy 'vqm'";
    core::CompileResult failed;
    failed.status = JobStatus::Failed;
    failed.error = "boom";
    for (const core::CompileResult *result : {&hit, &degraded, &failed})
        cache.record(circuits[0], snapshots[0], *result);
    EXPECT_EQ(store.stats().writes, 0u);

    cache.record(circuits[0], snapshots[0], fresh[0]);
    EXPECT_EQ(store.stats().writes, 1u);
}

TEST_F(BatchStoreTest, ResultsIdenticalAcrossThreadCounts)
{
    // Duplicate jobs in one batch are the sharp edge: lookups must
    // observe the store as it was at batch entry (records are
    // deferred), or thread timing would decide which duplicate
    // compiles and which hits.
    std::vector<circuit::Circuit> queue = circuits;
    queue.push_back(circuits[0]);
    queue.push_back(circuits[1]);

    std::vector<std::string> baseline;
    for (const std::size_t threads : {1u, 4u, 8u}) {
        ArtifactStore store(StoreOptions{}); // memory-only
        ArtifactCacheAdapter cache(store, graph, spec);
        const core::Mapper mapper = core::makeMapper(spec);
        BatchCompiler compiler(mapper, graph,
                               optionsWith(&cache, threads));
        const std::vector<BatchResult> cold =
            compiler.compileAll(queue, snapshots);
        const std::vector<BatchResult> warm =
            compiler.compileAll(queue, snapshots);
        std::vector<std::string> prints;
        for (const BatchResult &r : cold)
            prints.push_back("cold:" + fingerprint(r) +
                             (r.fromStore ? "/store" : "/compiled"));
        for (const BatchResult &r : warm)
            prints.push_back("warm:" + fingerprint(r) +
                             (r.fromStore ? "/store" : "/compiled"));
        if (baseline.empty())
            baseline = prints;
        else
            EXPECT_EQ(prints, baseline)
                << "thread count " << threads;
        // Every warm job is a store hit regardless of threads.
        for (const BatchResult &r : warm)
            EXPECT_TRUE(r.fromStore);
    }
}

TEST_F(BatchStoreTest, SeriesReplayRecompilesOnlyTouchedDeltas)
{
    obs::setEnabled(true);
    ArtifactStore store(StoreOptions{.directory = dir.str()});
    ArtifactCacheAdapter cache(store, graph, spec);

    // Cycle 0: cold compile of the whole queue.
    const std::vector<BatchResult> cycle0 =
        runCycle(snapshots[0], &cache);
    const std::size_t n = circuits.size();
    ASSERT_EQ(store.stats().writes, n);
    std::vector<TouchedSets> touched;
    for (const BatchResult &r : cycle0)
        touched.push_back(touchedOf(r.mapped, graph));

    // Cycle 1: drift only hardware no circuit touches -> the whole
    // queue is served via delta reuse, zero recompiles.
    int untouchedQubit = -1;
    for (int q = 0; q < graph.numQubits(); ++q) {
        bool used = false;
        for (const TouchedSets &t : touched)
            used = used || t.containsQubit(q);
        if (!used)
            untouchedQubit = q;
    }
    ASSERT_GE(untouchedQubit, 0)
        << "queue unexpectedly covers the whole machine";
    calibration::Snapshot cycle1Snap = snapshots[0];
    cycle1Snap.qubit(untouchedQubit).t1Us *= 0.25;
    cycle1Snap.qubit(untouchedQubit).readoutError = 0.3;

    const std::uint64_t deltaBefore =
        obs::Registry::global().snapshot().counters.count(
            "store.delta_reuse")
            ? obs::Registry::global().snapshot().counters.at(
                  "store.delta_reuse")
            : 0;
    const core::Mapper mapper = core::makeMapper(spec);
    BatchOptions telemetered = optionsWith(&cache);
    telemetered.compile.telemetryEnabled = true;
    BatchCompiler compiler(mapper, graph, telemetered);
    const std::vector<BatchResult> cycle1 =
        compiler.compileAll(circuits, {cycle1Snap});
    int compiled1 = 0;
    for (const BatchResult &r : cycle1) {
        EXPECT_TRUE(r.fromStore);
        compiled1 += r.attempts;
    }
    EXPECT_EQ(compiled1, 0);
    EXPECT_EQ(store.stats().deltaReuse, n);
    EXPECT_EQ(store.stats().writes, n); // nothing new recorded
    // The telemetry counter saw every delta-served job.
    EXPECT_EQ(obs::Registry::global().snapshot().counters.at(
                  "store.delta_reuse") -
                  deltaBefore,
              n);

    // Cycle 2: drift one piece of hardware inside some circuits'
    // touched sets. Exactly the intersecting circuits recompile;
    // the rest ride the store.
    std::size_t probeLink = graph.linkCount();
    for (const std::size_t l : touched[0].links) {
        probeLink = l;
        if (!touched[1].containsLink(l))
            break; // prefer a link unique to circuit 0
    }
    ASSERT_LT(probeLink, graph.linkCount());
    calibration::Snapshot cycle2Snap = snapshots[0];
    cycle2Snap.setLinkError(probeLink, 0.19);
    std::size_t affected = 0;
    for (const TouchedSets &t : touched)
        affected += t.containsLink(probeLink) ? 1 : 0;
    ASSERT_GE(affected, 1u);

    const StoreStats before = store.stats();
    const std::vector<BatchResult> cycle2 =
        runCycle(cycle2Snap, &cache);
    for (std::size_t i = 0; i < cycle2.size(); ++i) {
        const bool intersects =
            touched[i].containsLink(probeLink);
        EXPECT_EQ(cycle2[i].fromStore, !intersects) << "job " << i;
        EXPECT_EQ(cycle2[i].attempts, intersects ? 1 : 0)
            << "job " << i;
        EXPECT_EQ(cycle2[i].status, JobStatus::Ok);
    }
    const StoreStats after = store.stats();
    EXPECT_EQ(after.deltaReuse - before.deltaReuse, n - affected);
    EXPECT_EQ(after.writes - before.writes, affected);
    obs::setEnabled(false);
}

TEST_F(BatchStoreTest, CorruptedStoreFilesNeverAbortABatch)
{
    {
        ArtifactStore store(StoreOptions{.directory = dir.str()});
        ArtifactCacheAdapter cache(store, graph, spec);
        runCycle(snapshots[0], &cache);
    }
    const auto records = test::storeRecords(dir.path());
    ASSERT_EQ(records.size(), circuits.size());
    // Damage every record a different way.
    {
        std::fstream f(records[0], std::ios::in | std::ios::out |
                                       std::ios::binary);
        f.seekp(30);
        f.put('!');
    }
    std::filesystem::resize_file(records[1], 10);

    ArtifactStore store(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(store.stats().corruptRecords, circuits.size());
    ArtifactCacheAdapter cache(store, graph, spec);
    std::vector<BatchResult> results;
    ASSERT_NO_THROW(results = runCycle(snapshots[0], &cache));
    const std::vector<BatchResult> reference =
        runCycle(snapshots[0], nullptr);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].status, JobStatus::Ok);
        EXPECT_FALSE(results[i].fromStore); // recompiled, healed
        EXPECT_EQ(fingerprint(results[i]),
                  fingerprint(reference[i]));
    }
    // The batch healed the records for the next warm start.
    ArtifactStore healed(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(healed.stats().warmLoaded, circuits.size());
}

TEST_F(BatchStoreTest, StoreHitsRunBothLintPasses)
{
    // A hit stands in for the mapping attempts only: pre-lint and
    // post-lint run on it, so a warm batch reports what the cold
    // one did.
    ArtifactStore store(StoreOptions{});
    ArtifactCacheAdapter cache(store, graph, spec);
    const core::Mapper mapper = core::makeMapper(spec);
    BatchOptions options = optionsWith(&cache);
    options.lint = true;
    BatchCompiler compiler(mapper, graph, options);
    const std::vector<BatchResult> cold =
        compiler.compileAll(circuits, snapshots);
    const std::vector<BatchResult> warm =
        compiler.compileAll(circuits, snapshots);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_TRUE(warm[i].fromStore);
        EXPECT_EQ(warm[i].lintErrors, cold[i].lintErrors);
        EXPECT_EQ(warm[i].lintWarnings, cold[i].lintWarnings);
        EXPECT_EQ(warm[i].diagnostics.size(),
                  cold[i].diagnostics.size());
        EXPECT_EQ(warm[i].mappedLintErrors,
                  cold[i].mappedLintErrors);
        EXPECT_EQ(warm[i].mappedLintWarnings,
                  cold[i].mappedLintWarnings);
    }
}

} // namespace
} // namespace vaq::store

/**
 * @file
 * ArtifactStore tests: persistence with atomic publish, warm
 * starts, corruption degrading to misses, LRU eviction removing
 * files, and the delta-reuse lookup path.
 */
#include "store/artifact_store.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "core/mapper.hpp"
#include "store_test_support.hpp"

namespace vaq::store
{
namespace
{

namespace fs = std::filesystem;

/** Fixture: one compiled program over linear(6), per-qubit-distinct
 *  calibration so delta comparisons bite. */
class ArtifactStoreTest : public ::testing::Test
{
  protected:
    ArtifactStoreTest()
        : graph(topology::linear(6)),
          snapshot(test::uniformSnapshot(graph)),
          logical(test::storeTestCircuit(3))
    {
        for (int q = 0; q < graph.numQubits(); ++q)
            snapshot.qubit(q).readoutError = 0.01 + 0.001 * q;
        for (std::size_t l = 0; l < graph.linkCount(); ++l)
            snapshot.setLinkError(l, 0.03 + 0.002 *
                                         static_cast<double>(l));
    }

    ArtifactKey keyFor(const calibration::Snapshot &snap) const
    {
        return makeArtifactKey(logical, graph, snap, spec);
    }

    CompileArtifact compileArtifact() const
    {
        const core::MappedCircuit mapped =
            core::makeMapper(spec).map(logical, graph, snapshot);
        return makeArtifact(mapped, 0.9, 0, 0, graph, snapshot);
    }

    test::TempStoreDir dir;
    topology::CouplingGraph graph;
    calibration::Snapshot snapshot;
    circuit::Circuit logical;
    core::PolicySpec spec{.name = "vqa+vqm"};
};

TEST_F(ArtifactStoreTest, MemoryOnlyPutGet)
{
    ArtifactStore store(StoreOptions{}); // no directory
    const ArtifactKey key = keyFor(snapshot);
    EXPECT_FALSE(store.get(key).has_value());
    store.put(key, compileArtifact());
    const auto hit = store.get(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->analyticPst, 0.9);
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.exactHits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ArtifactStoreTest, PersistsAtomicallyAndWarmStarts)
{
    const ArtifactKey key = keyFor(snapshot);
    {
        ArtifactStore store(StoreOptions{.directory = dir.str()});
        store.put(key, compileArtifact());
    }
    const auto records = test::storeRecords(dir.path());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].filename().string(), key.fileName());
    // No torn-write droppings.
    for (const auto &entry : fs::directory_iterator(dir.path()))
        EXPECT_NE(entry.path().extension(), ".tmp");

    // A new process (new store) warm-starts from the directory.
    ArtifactStore reopened(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(reopened.stats().warmLoaded, 1u);
    const auto hit = reopened.get(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->analyticPst, 0.9);
}

TEST_F(ArtifactStoreTest, CorruptAndTruncatedRecordsAreMisses)
{
    const ArtifactKey key = keyFor(snapshot);
    {
        ArtifactStore store(StoreOptions{.directory = dir.str()});
        store.put(key, compileArtifact());
    }
    const auto records = test::storeRecords(dir.path());
    ASSERT_EQ(records.size(), 1u);

    // Flip a byte in the middle of the record.
    {
        std::fstream f(records[0],
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(120);
        f.put('#');
    }
    ArtifactStore corrupted(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(corrupted.stats().warmLoaded, 0u);
    EXPECT_EQ(corrupted.stats().corruptRecords, 1u);
    EXPECT_FALSE(corrupted.get(key).has_value());
    // ... and warm start removed the damaged file.
    EXPECT_TRUE(test::storeRecords(dir.path()).empty());

    // Truncate a fresh copy instead.
    {
        ArtifactStore store(StoreOptions{.directory = dir.str()});
        store.put(key, compileArtifact());
    }
    fs::resize_file(test::storeRecords(dir.path()).at(0), 64);
    ArtifactStore truncated(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(truncated.stats().corruptRecords, 1u);
    EXPECT_FALSE(truncated.get(key).has_value());

    // A put over the same key heals the record.
    truncated.put(key, compileArtifact());
    ArtifactStore healed(StoreOptions{.directory = dir.str()});
    EXPECT_TRUE(healed.get(key).has_value());
}

TEST_F(ArtifactStoreTest, CrashRecoverySweepsDroppings)
{
    // Simulate a crash mid-publish: a truncated .tmp that never
    // reached its rename, next to a half-written published record.
    const ArtifactKey key = keyFor(snapshot);
    {
        ArtifactStore store(StoreOptions{.directory = dir.str()});
        store.put(key, compileArtifact());
    }
    const auto records = test::storeRecords(dir.path());
    ASSERT_EQ(records.size(), 1u);
    const fs::path tmp = records[0].string() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        out << "vaqart half-writ";
    }
    fs::resize_file(records[0], 32); // torn published record

    ArtifactStore recovered(
        StoreOptions{.directory = dir.str()});
    // Both casualties are misses, counted, and swept from disk.
    EXPECT_EQ(recovered.stats().warmLoaded, 0u);
    EXPECT_EQ(recovered.stats().corruptRecords, 1u);
    EXPECT_EQ(recovered.stats().staleTmpCleaned, 1u);
    EXPECT_FALSE(recovered.get(key).has_value());
    EXPECT_FALSE(fs::exists(tmp));
    EXPECT_TRUE(test::storeRecords(dir.path()).empty());

    // The store keeps working in the swept directory, and the
    // re-published record survives the next warm start.
    recovered.put(key, compileArtifact());
    ArtifactStore reopened(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(reopened.stats().warmLoaded, 1u);
    EXPECT_EQ(reopened.stats().staleTmpCleaned, 0u);
    EXPECT_TRUE(reopened.get(key).has_value());
}

TEST_F(ArtifactStoreTest, EvictionRemovesFilesLru)
{
    ArtifactStore store(StoreOptions{.directory = dir.str(),
                                     .maxEntries = 2});
    const CompileArtifact artifact = compileArtifact();
    std::vector<ArtifactKey> keys;
    for (int i = 0; i < 3; ++i) {
        calibration::Snapshot cycle = snapshot;
        cycle.qubit(0).t1Us += i; // distinct snapshot axis
        keys.push_back(keyFor(cycle));
        store.put(keys.back(), artifact);
    }
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(test::storeRecords(dir.path()).size(), 2u);
    // keys[0] was least recently used; exact-get misses do not
    // resurrect it from the (deleted) file.
    EXPECT_FALSE(store.get(keys[0]).has_value());
    EXPECT_TRUE(store.get(keys[1]).has_value());
    EXPECT_TRUE(store.get(keys[2]).has_value());
}

TEST_F(ArtifactStoreTest, DeltaReuseServesAcrossCycles)
{
    ArtifactStore store(StoreOptions{.directory = dir.str()});
    const CompileArtifact artifact = compileArtifact();
    store.put(keyFor(snapshot), artifact);

    // New cycle drifting only hardware outside the touched set.
    int untouched = -1;
    for (int q = 0; q < graph.numQubits(); ++q) {
        if (std::find(artifact.touchedQubits.begin(),
                      artifact.touchedQubits.end(),
                      q) == artifact.touchedQubits.end())
            untouched = q;
    }
    ASSERT_GE(untouched, 0);
    calibration::Snapshot benign = snapshot;
    benign.qubit(untouched).t1Us = 11.0;
    ASSERT_NE(keyFor(benign).combined(),
              keyFor(snapshot).combined());

    // stalenessTol is 0, so a serve across the change is a
    // touched-set (delta) serve and never a bound serve.
    DeltaServeInfo info;
    const auto hit = store.getOrDelta(keyFor(benign), benign, info);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(info.viaDelta);
    EXPECT_FALSE(info.boundReuse);
    EXPECT_EQ(store.stats().deltaReuse, 1u);
    EXPECT_EQ(store.stats().boundReuse, 0u);

    // The alias makes the rest of the cycle exact, with no second
    // file on disk.
    const auto again = store.getOrDelta(keyFor(benign), benign, info);
    ASSERT_TRUE(again.has_value());
    EXPECT_FALSE(info.viaDelta);
    EXPECT_FALSE(info.boundReuse);
    EXPECT_EQ(store.stats().exactHits, 1u);
    EXPECT_EQ(test::storeRecords(dir.path()).size(), 1u);

    // A cycle that drifts a touched link must miss.
    calibration::Snapshot breaking = snapshot;
    breaking.setLinkError(artifact.touchedLinks.front(), 0.2);
    EXPECT_FALSE(
        store.getOrDelta(keyFor(breaking), breaking, info).has_value());
    EXPECT_FALSE(info.viaDelta);
    EXPECT_FALSE(info.boundReuse);
    EXPECT_EQ(store.stats().misses, 1u);

    // Delta reuse can be disabled.
    ArtifactStore strict(StoreOptions{.deltaReuse = false});
    strict.put(keyFor(snapshot), artifact);
    EXPECT_FALSE(
        strict.getOrDelta(keyFor(benign), benign, info).has_value());
    EXPECT_FALSE(info.viaDelta);
}

TEST_F(ArtifactStoreTest, BoundReuseServesCertifiedStaleness)
{
    ArtifactStore store(
        StoreOptions{.directory = dir.str(), .stalenessTol = 1e-3});
    const CompileArtifact artifact = compileArtifact();
    store.put(keyFor(snapshot), artifact);

    // Drift a touched qubit's readout by 1e-6: the touched-set rule
    // misses, the certificate stays far within 1e-3.
    calibration::Snapshot drifted = snapshot;
    drifted.qubit(artifact.touchedQubits.front()).readoutError +=
        1e-6;
    ASSERT_FALSE(reusableUnder(artifact, drifted));

    DeltaServeInfo info;
    const auto hit =
        store.getOrDelta(keyFor(drifted), drifted, info);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(info.boundReuse);
    EXPECT_FALSE(info.viaDelta);
    EXPECT_GT(info.stalenessBound, 0.0);
    EXPECT_LE(info.stalenessBound, 1e-3);
    // The served PST carries the exact analytic shift.
    const analysis::StalenessAssessment assess =
        assessArtifactStaleness(artifact, drifted);
    EXPECT_DOUBLE_EQ(info.stalenessBound, assess.bound());
    EXPECT_DOUBLE_EQ(hit->analyticPst,
                     artifact.analyticPst *
                         std::exp(assess.deltaLogPst));
    EXPECT_EQ(store.stats().boundReuse, 1u);
    EXPECT_EQ(store.stats().hits, 1u);

    // Bound serves are never aliased: the same lookup serves on the
    // bound again (always measured against the compile-time
    // baseline), no exact-hit entry and no new file appear.
    const auto again =
        store.getOrDelta(keyFor(drifted), drifted, info);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(info.boundReuse);
    EXPECT_EQ(store.stats().boundReuse, 2u);
    EXPECT_EQ(store.stats().exactHits, 0u);
    EXPECT_EQ(test::storeRecords(dir.path()).size(), 1u);
}

TEST_F(ArtifactStoreTest, BoundReuseRespectsTheTolerance)
{
    const CompileArtifact artifact = compileArtifact();

    // T2-only recalibration certifies at bound 0 under any
    // positive tolerance.
    calibration::Snapshot t2Only = snapshot;
    for (int q = 0; q < graph.numQubits(); ++q)
        t2Only.qubit(q).t2Us *= 0.5;

    // A hard excursion on a touched link exceeds every tolerance
    // in the sweep.
    calibration::Snapshot excursion = snapshot;
    excursion.setLinkError(artifact.touchedLinks.front(), 0.2);

    {
        ArtifactStore store(StoreOptions{.stalenessTol = 1e-6});
        store.put(keyFor(snapshot), artifact);
        DeltaServeInfo info;
        const auto hit =
            store.getOrDelta(keyFor(t2Only), t2Only, info);
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(info.boundReuse);
        EXPECT_EQ(info.stalenessBound, 0.0);
        EXPECT_EQ(assessArtifactStaleness(artifact, t2Only).deltaLogPst,
                  0.0);
        EXPECT_DOUBLE_EQ(hit->analyticPst, artifact.analyticPst);

        EXPECT_FALSE(store
                         .getOrDelta(keyFor(excursion), excursion,
                                     info)
                         .has_value());
        EXPECT_FALSE(info.boundReuse);
        EXPECT_EQ(store.stats().misses, 1u);
    }

    // tol = 0 (the default) disables the fallback entirely — the
    // legacy touched-set behavior, even for the provably harmless
    // T2-only cycle.
    {
        ArtifactStore store(StoreOptions{});
        store.put(keyFor(snapshot), artifact);
        DeltaServeInfo info;
        EXPECT_FALSE(
            store.getOrDelta(keyFor(t2Only), t2Only, info)
                .has_value());
        EXPECT_FALSE(info.boundReuse);
        EXPECT_EQ(store.stats().boundReuse, 0u);
    }
}

TEST_F(ArtifactStoreTest, DifferentPolicyNeverCrossesOver)
{
    ArtifactStore store(StoreOptions{});
    store.put(keyFor(snapshot), compileArtifact());
    const core::PolicySpec other{.name = "baseline"};
    const ArtifactKey otherKey =
        makeArtifactKey(logical, graph, snapshot, other);
    EXPECT_FALSE(store.get(otherKey).has_value());
    DeltaServeInfo info;
    EXPECT_FALSE(
        store.getOrDelta(otherKey, snapshot, info).has_value());
}

} // namespace
} // namespace vaq::store

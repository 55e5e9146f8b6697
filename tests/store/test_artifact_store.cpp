/**
 * @file
 * ArtifactStore tests: persistence with atomic publish, warm
 * starts, corruption degrading to misses, LRU eviction removing
 * files, the certified lookup path (delta and bound serves), and
 * property checks over the Table 1 suite: of the one certificate,
 * and of served compiles linting exactly like fresh ones.
 */
#include "store/artifact_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <fstream>

#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "analysis/staleness.hpp"
#include "calibration/synthetic.hpp"
#include "common/rng.hpp"
#include "core/compile_request.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "store/adapter.hpp"
#include "store_test_support.hpp"
#include "workloads/workloads.hpp"

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

    /** Look `key` up against the fixture snapshot. */
    std::optional<CompileArtifact> lookup(ArtifactStore &store,
                                          const ArtifactKey &key) const
    {
        DeltaServeInfo info;
        return store.getOrDelta(key, snapshot, info);
    }

    CompileArtifact compileArtifact() const
    {
        const core::MappedCircuit mapped =
            core::makeMapper(spec).map(logical, graph, snapshot);
        return makeArtifact(mapped, 0.9, graph, snapshot);
    }

    /** A touched qubit the mapped circuit measures. */
    static int measuredQubit(const CompileArtifact &artifact)
    {
        for (const analysis::QubitSensitivity &q :
             artifact.profile.qubits) {
            if (q.measurements > 0.0)
                return q.qubit;
        }
        return -1;
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
    EXPECT_FALSE(lookup(store, key).has_value());
    store.put(key, compileArtifact());
    const auto hit = lookup(store, key);
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
    const auto hit = lookup(reopened, key);
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
    EXPECT_FALSE(lookup(corrupted, key).has_value());
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
    EXPECT_FALSE(lookup(truncated, key).has_value());

    // A put over the same key heals the record.
    truncated.put(key, compileArtifact());
    ArtifactStore healed(StoreOptions{.directory = dir.str()});
    EXPECT_TRUE(lookup(healed, key).has_value());
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
    EXPECT_FALSE(lookup(recovered, key).has_value());
    EXPECT_FALSE(fs::exists(tmp));
    EXPECT_TRUE(test::storeRecords(dir.path()).empty());

    // The store keeps working in the swept directory, and the
    // re-published record survives the next warm start.
    recovered.put(key, compileArtifact());
    ArtifactStore reopened(StoreOptions{.directory = dir.str()});
    EXPECT_EQ(reopened.stats().warmLoaded, 1u);
    EXPECT_EQ(reopened.stats().staleTmpCleaned, 0u);
    EXPECT_TRUE(lookup(reopened, key).has_value());
}

TEST_F(ArtifactStoreTest, EvictionRemovesFilesLru)
{
    // Exact lookups only: every key shares one base, so a delta
    // serve would mask the eviction.
    ArtifactStore store(StoreOptions{.directory = dir.str(),
                                     .maxEntries = 2,
                                     .deltaReuse = false});
    const CompileArtifact artifact = compileArtifact();
    std::vector<ArtifactKey> keys;
    for (int i = 0; i < 3; ++i) {
        calibration::Snapshot cycle = snapshot;
        cycle.qubit(0).t1Us += i; // distinct snapshot axis
        keys.push_back(keyFor(cycle));
        store.put(keys.back(), artifact);
    }
    EXPECT_EQ(store.stats().entries, 2u);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(test::storeRecords(dir.path()).size(), 2u);
    // keys[0] was least recently used; exact-get misses do not
    // resurrect it from the (deleted) file.
    EXPECT_FALSE(lookup(store, keys[0]).has_value());
    EXPECT_TRUE(lookup(store, keys[1]).has_value());
    EXPECT_TRUE(lookup(store, keys[2]).has_value());
}

TEST_F(ArtifactStoreTest, DeltaReuseServesAcrossCycles)
{
    ArtifactStore store(StoreOptions{.directory = dir.str()});
    const CompileArtifact artifact = compileArtifact();
    store.put(keyFor(snapshot), artifact);

    // New cycle drifting only hardware outside the touched set.
    int untouched = -1;
    for (int q = 0; q < graph.numQubits(); ++q) {
        if (std::none_of(artifact.profile.qubits.begin(),
                         artifact.profile.qubits.end(),
                         [q](const analysis::QubitSensitivity &s) {
                             return s.qubit == q;
                         }))
            untouched = q;
    }
    ASSERT_GE(untouched, 0);
    calibration::Snapshot benign = snapshot;
    benign.qubit(untouched).t1Us = 11.0;
    ASSERT_NE(keyFor(benign).combined(),
              keyFor(snapshot).combined());

    // stalenessTol is 0, so a serve across the change is a
    // zero-bound (delta) serve and never a bound serve.
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
    breaking.setLinkError(artifact.profile.links.front().link, 0.2);
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

    // Drift a measured qubit's readout by 1e-6: the bound is no
    // longer 0, but stays far within 1e-3.
    calibration::Snapshot drifted = snapshot;
    ASSERT_GE(measuredQubit(artifact), 0);
    drifted.qubit(measuredQubit(artifact)).readoutError += 1e-6;
    const analysis::StalenessAssessment assess =
        analysis::assessStaleness(artifact.profile, drifted);
    ASSERT_GT(assess.bound(), 0.0);

    DeltaServeInfo info;
    const auto hit =
        store.getOrDelta(keyFor(drifted), drifted, info);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(info.boundReuse);
    EXPECT_FALSE(info.viaDelta);
    EXPECT_GT(info.stalenessBound, 0.0);
    EXPECT_LE(info.stalenessBound, 1e-3);
    // The served PST carries the exact analytic shift.
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

    // T2-only recalibration: the PST never reads T2, so the bound is
    // exactly 0 and the artifact is a delta serve at any tolerance.
    calibration::Snapshot t2Only = snapshot;
    for (int q = 0; q < graph.numQubits(); ++q)
        t2Only.qubit(q).t2Us *= 0.5;

    // A small readout drift on a measured qubit: bound > 0.
    calibration::Snapshot small = snapshot;
    ASSERT_GE(measuredQubit(artifact), 0);
    small.qubit(measuredQubit(artifact)).readoutError += 1e-6;

    // A hard excursion on a touched link exceeds every tolerance
    // in the sweep.
    calibration::Snapshot excursion = snapshot;
    excursion.setLinkError(artifact.profile.links.front().link, 0.2);

    {
        ArtifactStore store(StoreOptions{.stalenessTol = 1e-6});
        store.put(keyFor(snapshot), artifact);
        DeltaServeInfo info;
        const auto hit =
            store.getOrDelta(keyFor(t2Only), t2Only, info);
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(info.viaDelta);
        EXPECT_FALSE(info.boundReuse);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hit->analyticPst),
                  std::bit_cast<std::uint64_t>(artifact.analyticPst));

        EXPECT_FALSE(store
                         .getOrDelta(keyFor(excursion), excursion,
                                     info)
                         .has_value());
        EXPECT_FALSE(info.boundReuse);
        EXPECT_EQ(store.stats().misses, 1u);
    }

    // tol = 0 (the default) still serves the zero-bound T2-only
    // cycle, but never a positive bound, however small.
    {
        ArtifactStore store(StoreOptions{});
        store.put(keyFor(snapshot), artifact);
        DeltaServeInfo info;
        EXPECT_TRUE(store.getOrDelta(keyFor(t2Only), t2Only, info)
                        .has_value());
        EXPECT_TRUE(info.viaDelta);
        EXPECT_FALSE(
            store.getOrDelta(keyFor(small), small, info).has_value());
        EXPECT_FALSE(info.boundReuse);
        EXPECT_EQ(store.stats().boundReuse, 0u);
        EXPECT_EQ(store.stats().deltaReuse, 1u);
    }
}

TEST_F(ArtifactStoreTest, DifferentPolicyNeverCrossesOver)
{
    ArtifactStore store(StoreOptions{});
    store.put(keyFor(snapshot), compileArtifact());
    const core::PolicySpec other{.name = "baseline"};
    const ArtifactKey otherKey =
        makeArtifactKey(logical, graph, snapshot, other);
    DeltaServeInfo info;
    EXPECT_FALSE(
        store.getOrDelta(otherKey, snapshot, info).has_value());
}

/** The drift kinds the certificate property is checked under. */
enum class Drift
{
    T2Only,        ///< T2 on every qubit
    T2Collapse,    ///< T2 x 0.1 on every qubit
    ZeroWeight,    ///< readout of unmeasured / 1q error of 1q-free
                   ///< touched qubits
    Untouched,     ///< every parameter outside the touched sets
    SmallTouched,  ///< relative 1e-5 on every touched parameter
    LinkExcursion, ///< one touched link x1.5
};

constexpr std::array kDriftKinds = {
    Drift::T2Only,    Drift::T2Collapse,   Drift::ZeroWeight,
    Drift::Untouched, Drift::SmallTouched, Drift::LinkExcursion,
};

/** `base` with one seeded drift of `kind` against `profile`. */
calibration::Snapshot
drifted(const calibration::Snapshot &base,
        const analysis::SensitivityProfile &profile, Drift kind,
        std::uint64_t seed)
{
    Rng rng(seed);
    calibration::Snapshot snap = base;
    const auto touchedQubit = [&profile](int q) {
        return std::any_of(profile.qubits.begin(), profile.qubits.end(),
                           [q](const analysis::QubitSensitivity &s) {
                               return s.qubit == q;
                           });
    };
    const auto touchedLink = [&profile](std::size_t l) {
        return std::any_of(profile.links.begin(), profile.links.end(),
                           [l](const analysis::LinkSensitivity &s) {
                               return s.link == l;
                           });
    };
    const auto nudge = [&rng](double value, double rel) {
        return value * (1.0 + rng.uniform(-rel, rel));
    };
    switch (kind) {
      case Drift::T2Only:
        for (int q = 0; q < snap.numQubits(); ++q)
            snap.qubit(q).t2Us = nudge(snap.qubit(q).t2Us, 0.1);
        break;
      case Drift::T2Collapse:
        for (int q = 0; q < snap.numQubits(); ++q)
            snap.qubit(q).t2Us *= 0.1;
        break;
      case Drift::ZeroWeight:
        for (const analysis::QubitSensitivity &q : profile.qubits) {
            calibration::QubitCalibration &cal = snap.qubit(q.qubit);
            if (q.measurements == 0.0)
                cal.readoutError = nudge(cal.readoutError, 0.5);
            if (q.oneQubitGates == 0.0)
                cal.error1q = nudge(cal.error1q, 0.5);
        }
        break;
      case Drift::Untouched:
        for (int q = 0; q < snap.numQubits(); ++q) {
            if (touchedQubit(q))
                continue;
            calibration::QubitCalibration &cal = snap.qubit(q);
            cal.t1Us = nudge(cal.t1Us, 0.3);
            cal.t2Us = nudge(cal.t2Us, 0.3);
            cal.error1q = nudge(cal.error1q, 0.3);
            cal.readoutError = nudge(cal.readoutError, 0.3);
        }
        for (std::size_t l = 0; l < snap.numLinks(); ++l) {
            if (!touchedLink(l))
                snap.setLinkError(l, nudge(snap.linkError(l), 0.3));
        }
        break;
      case Drift::SmallTouched:
        for (const analysis::QubitSensitivity &q : profile.qubits) {
            calibration::QubitCalibration &cal = snap.qubit(q.qubit);
            cal.t1Us = nudge(cal.t1Us, 1e-5);
            cal.error1q = nudge(cal.error1q, 1e-5);
            cal.readoutError = nudge(cal.readoutError, 1e-5);
        }
        for (const analysis::LinkSensitivity &l : profile.links)
            snap.setLinkError(l.link, nudge(snap.linkError(l.link), 1e-5));
        break;
      case Drift::LinkExcursion: {
        const std::size_t l =
            profile.links[rng.uniformInt(profile.links.size())].link;
        snap.setLinkError(l, snap.linkError(l) * 1.5);
        break;
      }
    }
    return snap;
}

TEST(StoreCertificate, ZeroBoundIsExactAndBoundServesTrackTheFreshPst)
{
    // Table 1 under vqa+vqm on IBM-Q20, each mapping stored once and
    // looked up under seeded drifts of five kinds. A bound of exactly
    // 0 must reproduce a fresh analytic PST of the stored mapping bit
    // for bit; a bound serve's shifted PST must sit within 1e-9 of
    // it, relative (the check vaqbench's vaqd-drift applies).
    constexpr double kTol = 1e-3;
    StoreOptions options;
    options.stalenessTol = kTol;
    const topology::CouplingGraph graph = topology::ibmQ20Tokyo();
    const calibration::Snapshot base =
        calibration::SyntheticSource(graph, {}, 7).nextCycle();
    const core::PolicySpec spec{.name = "vqa+vqm"};
    const core::Mapper mapper = core::makeMapper(spec);
    const auto pstUnder = [&graph](const circuit::Circuit &physical,
                                   const calibration::Snapshot &snap) {
        return sim::analyticPst(
            physical,
            sim::NoiseModel(graph, snap, sim::CoherenceMode::PerOp));
    };

    std::size_t zeroServes = 0;
    std::size_t boundServes = 0;
    std::size_t checked[kDriftKinds.size()] = {};
    for (const workloads::Workload &w : workloads::standardSuite(graph)) {
        const core::MappedCircuit mapped =
            mapper.map(w.circuit, graph, base);
        const CompileArtifact artifact =
            makeArtifact(mapped, pstUnder(mapped.physical, base), graph,
                         base);
        const ArtifactKey baseKey =
            makeArtifactKey(w.circuit, graph, base, spec);
        for (const Drift kind : kDriftKinds) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                const calibration::Snapshot now =
                    drifted(base, artifact.profile, kind, seed);
                const ArtifactKey key =
                    makeArtifactKey(w.circuit, graph, now, spec);
                if (key == baseKey)
                    continue; // nothing of this kind to drift
                ++checked[static_cast<int>(kind)];
                const std::string where =
                    w.name + " kind " +
                    std::to_string(static_cast<int>(kind)) + " seed " +
                    std::to_string(seed);
                const analysis::StalenessAssessment assess =
                    analysis::assessStaleness(artifact.profile, now);
                const bool zeroKind = kind == Drift::T2Only ||
                                      kind == Drift::T2Collapse ||
                                      kind == Drift::ZeroWeight ||
                                      kind == Drift::Untouched;
                EXPECT_EQ(assess.within(0.0), zeroKind) << where;

                ArtifactStore store(options);
                store.put(baseKey, artifact);
                DeltaServeInfo info;
                const auto hit = store.getOrDelta(key, now, info);
                const double fresh = pstUnder(artifact.physical, now);
                if (assess.within(0.0)) {
                    ASSERT_TRUE(hit.has_value()) << where;
                    EXPECT_TRUE(info.viaDelta) << where;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh),
                              std::bit_cast<std::uint64_t>(
                                  hit->analyticPst))
                        << where;
                    ++zeroServes;
                } else if (assess.within(kTol)) {
                    ASSERT_TRUE(hit.has_value()) << where;
                    EXPECT_TRUE(info.boundReuse) << where;
                    EXPECT_LE(std::abs(hit->analyticPst - fresh),
                              1e-9 * fresh)
                        << where;
                    ++boundServes;
                } else {
                    EXPECT_FALSE(hit.has_value()) << where;
                }
            }
        }
    }
    for (const std::size_t count : checked)
        EXPECT_GT(count, 0u);
    EXPECT_GT(zeroServes, 0u);
    EXPECT_GT(boundServes, 0u);
}

/** Pre-lint counts and findings of a result, for equality checks. */
std::string
preLintView(const core::CompileResult &r)
{
    analysis::LintReport report;
    report.diagnostics = r.diagnostics;
    return std::to_string(r.lintErrors) + " errors, " +
           std::to_string(r.lintWarnings) + " warnings\n" +
           analysis::renderJson(report);
}

TEST(StoreCertificate, ServedResultsLintLikeFreshCompiles)
{
    // The certificate weighs what the PST reads, not what lint
    // reads (T2, idle windows), so a serve re-runs both lint passes.
    // Table 1 under vqa+vqm on IBM-Q20 is compiled once with lint on
    // and recorded, then requested under the unchanged snapshot
    // (exact serve) and under one drift of each kind (delta or bound
    // serve, or a recompile). A served result's pre-lint counts and
    // findings equal a fresh compile's; its mapped-lint counts equal
    // a fresh lint of the served mapping, which is what the fresh
    // compile reports whenever it picks the same mapping. A lint-off
    // request served from the lint-on artifact reports no findings.
    StoreOptions options;
    options.stalenessTol = 1e-3;
    const topology::CouplingGraph graph = topology::ibmQ20Tokyo();
    const calibration::Snapshot base =
        calibration::SyntheticSource(graph, {}, 7).nextCycle();
    const core::PolicySpec spec{.name = "vqa+vqm"};
    const core::Mapper mapper = core::makeMapper(spec);
    core::CompileRequest request;
    request.policy = spec;
    request.lint = true;
    core::CompileRequest lintOff = request;
    lintOff.lint = false;
    const analysis::Linter linter(request.lintOptions);
    core::CompileContext fresh;
    fresh.mapper = &mapper;

    std::size_t exact = 0;
    std::size_t delta = 0;
    std::size_t bound = 0;
    std::size_t sameMapping = 0;
    for (const workloads::Workload &w : workloads::standardSuite(graph)) {
        const auto compile = [&](const core::CompileRequest &r,
                                 const calibration::Snapshot &snap,
                                 const core::CompileContext &context) {
            return core::compileCircuit(w.circuit, r, graph, snap,
                                        context);
        };
        ArtifactStore store(options);
        ArtifactCacheAdapter cache(store, graph, spec);
        core::CompileContext cached = fresh;
        cached.artifactCache = &cache;
        const core::CompileResult stored = compile(request, base, fresh);
        ASSERT_EQ(stored.status, core::JobStatus::Ok) << w.name;
        cache.record(w.circuit, base, stored);
        DeltaServeInfo info;
        const auto artifact = store.getOrDelta(
            makeArtifactKey(w.circuit, graph, base, spec), base, info);
        ASSERT_TRUE(artifact.has_value()) << w.name;

        std::vector<calibration::Snapshot> snapshots = {base};
        for (const Drift kind : kDriftKinds)
            snapshots.push_back(
                drifted(base, artifact->profile, kind, 1));
        for (std::size_t i = 0; i < snapshots.size(); ++i) {
            const calibration::Snapshot &now = snapshots[i];
            const std::string where =
                w.name + " snapshot " + std::to_string(i);
            const core::CompileResult served =
                compile(request, now, cached);
            if (!served.fromStore)
                continue; // recompiled: nothing was served
            ++(served.boundReuse ? bound
               : served.viaDelta ? delta
                                 : exact);
            // The recorded compile is the fresh one on `base`.
            const core::CompileResult recompiled =
                i == 0 ? stored : compile(request, now, fresh);
            EXPECT_EQ(preLintView(served), preLintView(recompiled))
                << where;
            const analysis::LintReport post = linter.lintPhysical(
                served.mapped.physical, graph, &now);
            EXPECT_EQ(served.mappedLintErrors, post.errorCount())
                << where;
            EXPECT_EQ(served.mappedLintWarnings, post.warningCount())
                << where;
            if (served.mapped.physical == recompiled.mapped.physical) {
                ++sameMapping;
                EXPECT_EQ(served.mappedLintErrors,
                          recompiled.mappedLintErrors)
                    << where;
                EXPECT_EQ(served.mappedLintWarnings,
                          recompiled.mappedLintWarnings)
                    << where;
            }

            const core::CompileResult quiet =
                compile(lintOff, now, cached);
            EXPECT_TRUE(quiet.fromStore) << where;
            EXPECT_EQ(preLintView(quiet),
                      preLintView(core::CompileResult{}))
                << where;
            EXPECT_EQ(quiet.mappedLintErrors, 0u) << where;
            EXPECT_EQ(quiet.mappedLintWarnings, 0u) << where;
        }
    }
    EXPECT_GT(exact, 0u);
    EXPECT_GT(delta, 0u);
    EXPECT_GT(bound, 0u);
    EXPECT_GT(sameMapping, 0u);
}

} // namespace
} // namespace vaq::store

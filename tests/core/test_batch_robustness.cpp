/**
 * @file
 * Fault-isolation tests for the batch compiler: a throwing or
 * timing-out job must not poison the batch, every other result must
 * stay bit-identical to a clean run at any thread count, and the
 * policy-degradation ladder / calibration quarantine must rescue
 * what can be rescued.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/allocator.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/mapper.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq
{
namespace
{

using core::BatchCompiler;
using core::BatchOptions;
using core::BatchResult;
using core::JobStatus;

/**
 * Delegates to the baseline LocalityAllocator, but throws for any
 * program of `trigger_qubits` qubits. The trigger is a property of
 * the circuit (not a call counter), so the injected fault hits the
 * same jobs under every thread count.
 */
class ThrowingAllocator final : public core::Allocator
{
  public:
    explicit ThrowingAllocator(int trigger_qubits)
        : _trigger(trigger_qubits)
    {}

    core::Layout allocate(
        const circuit::Circuit &logical,
        const core::CalibrationContext &context) const override
    {
        if (logical.numQubits() == _trigger)
            throw CompileError("injected allocator fault");
        return _inner.allocate(logical, context);
    }

    std::string name() const override { return "throwing"; }

  private:
    core::LocalityAllocator _inner;
    int _trigger;
};

/** numQubits == 4 arms the injected fault; everything else is a
 *  3-qubit program the allocator handles normally. */
constexpr int kTriggerQubits = 4;

std::vector<circuit::Circuit>
batchCircuits(std::size_t count, std::size_t faulty_index)
{
    Rng rng(1234);
    std::vector<circuit::Circuit> circuits;
    circuits.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const int qubits = i == faulty_index ? kTriggerQubits : 3;
        circuits.push_back(
            vaq::test::randomCircuit(qubits, 12, rng));
    }
    return circuits;
}

core::Mapper
throwingMapper()
{
    return core::Mapper(
        "throwy", std::make_unique<ThrowingAllocator>(kTriggerQubits),
        core::CostKind::SwapCount);
}

core::Mapper
referenceMapper()
{
    return core::Mapper("reference",
                        std::make_unique<core::LocalityAllocator>(),
                        core::CostKind::SwapCount);
}

/** Everything observable about a result, for bit-identity checks. */
std::string
fingerprint(const BatchResult &r)
{
    std::string fp = std::to_string(r.circuit) + "/" +
                     std::to_string(r.snapshot) + "/" +
                     core::jobStatusName(r.status) + "/" +
                     r.policyUsed + "/" +
                     std::to_string(r.attempts) + "/" +
                     std::to_string(r.mapped.insertedSwaps) + "/" +
                     std::to_string(r.analyticPst);
    if (r.ok())
        fp += "\n" + circuit::toQasm(r.mapped.physical);
    return fp;
}

BatchOptions
optionsWithThreads(std::size_t threads)
{
    BatchOptions options;
    options.compile.threads = threads;
    return options;
}

TEST(BatchRobustness, ThrowingJobIsIsolated)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto snapshot = vaq::test::uniformSnapshot(q5);
    const auto circuits = batchCircuits(10, 4);
    const core::Mapper mapper = throwingMapper();

    BatchOptions options = optionsWithThreads(4);
    options.maxRetries = 0; // no ladder: the fault must surface
    BatchCompiler compiler(mapper, q5, options);
    const auto results = compiler.compileAll(
        circuits, {snapshot});

    ASSERT_EQ(results.size(), circuits.size());
    for (const BatchResult &r : results) {
        if (r.circuit == 4) {
            EXPECT_EQ(r.status, JobStatus::Failed);
            EXPECT_EQ(r.errorCategory, ErrorCategory::Compile);
            EXPECT_NE(r.error.find("injected allocator fault"),
                      std::string::npos);
            EXPECT_EQ(r.attempts, 1);
            EXPECT_FALSE(r.ok());
        } else {
            EXPECT_EQ(r.status, JobStatus::Ok);
            EXPECT_TRUE(r.error.empty());
            EXPECT_EQ(r.policyUsed, "throwy");
            EXPECT_GT(r.analyticPst, 0.0);
        }
    }
}

TEST(BatchRobustness, FallbackLadderRescuesThrowingJob)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto snapshot = vaq::test::uniformSnapshot(q5);
    const auto circuits = batchCircuits(6, 2);
    const core::Mapper mapper = throwingMapper();

    BatchCompiler compiler(mapper, q5, optionsWithThreads(4));
    const auto results =
        compiler.compileAll(circuits, {snapshot});

    for (const BatchResult &r : results) {
        if (r.circuit == 2) {
            // "throwy" degrades to the registry baseline.
            EXPECT_EQ(r.status, JobStatus::Degraded);
            EXPECT_EQ(r.policyUsed, "baseline");
            EXPECT_EQ(r.attempts, 2);
            EXPECT_NE(r.note.find("fell back"), std::string::npos);
            EXPECT_TRUE(r.ok());
            EXPECT_GT(r.analyticPst, 0.0);
        } else {
            EXPECT_EQ(r.status, JobStatus::Ok);
        }
    }
}

TEST(BatchRobustness, UsageErrorsAreNotRetried)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto snapshot = vaq::test::uniformSnapshot(q5);
    Rng rng(7);
    // 6-qubit program on a 5-qubit machine: deterministic usage
    // error, same under every policy; the ladder must not run.
    std::vector<circuit::Circuit> circuits{
        vaq::test::randomCircuit(6, 8, rng)};

    const core::Mapper mapper = referenceMapper();
    BatchCompiler compiler(mapper, q5, optionsWithThreads(2));
    const auto results =
        compiler.compileAll(circuits, {snapshot});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::Usage);
    EXPECT_EQ(results[0].attempts, 1);
}

TEST(BatchRobustness, NaNPoisonedSnapshotDegradesJobs)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto clean = vaq::test::uniformSnapshot(q5);
    calibration::Snapshot poisoned = clean;
    poisoned.qubit(3).t1Us =
        std::numeric_limits<double>::quiet_NaN();

    const auto circuits = batchCircuits(5, 99); // no thrower
    const core::Mapper mapper = referenceMapper();
    BatchCompiler compiler(mapper, q5, optionsWithThreads(4));
    const auto results =
        compiler.compileAll(circuits, {clean, poisoned});

    ASSERT_EQ(results.size(), circuits.size() * 2);
    for (const BatchResult &r : results) {
        if (r.snapshot == 0) {
            EXPECT_EQ(r.status, JobStatus::Ok);
            continue;
        }
        // Qubit 3 is quarantined; the healthy region {0,1,2,4}
        // stays connected on Tenerife, so jobs degrade instead of
        // failing and never touch the dead qubit.
        EXPECT_EQ(r.status, JobStatus::Degraded);
        EXPECT_NE(r.note.find("quarantined"), std::string::npos);
        EXPECT_GT(r.analyticPst, 0.0);
        for (int q = 0; q < 3; ++q)
            EXPECT_NE(r.mapped.initial.phys(q), 3);
        for (const circuit::Gate &g :
             r.mapped.physical.gates()) {
            EXPECT_NE(g.q0, 3);
            if (g.isTwoQubit()) {
                EXPECT_NE(g.q1, 3);
            }
        }
    }
}

TEST(BatchRobustness, WideProgramFailsAloneOnQuarantinedSnapshot)
{
    // Qubit 3 reports NaN coherence: the quarantine leaves the
    // {0,1,2,4} region. Small programs compile degraded; the 5-qubit
    // program no longer fits and fails alone.
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot dirty =
        vaq::test::uniformSnapshot(q5, 0.06, 0.004, 0.06);
    dirty.qubit(3).t1Us = std::numeric_limits<double>::quiet_NaN();
    const std::vector<circuit::Circuit> queue = {
        workloads::ghz(3), workloads::ghz(5),
        workloads::bernsteinVazirani(3)};

    const core::Mapper mapper = core::makeMapper({.name = "baseline"});
    BatchCompiler compiler(mapper, q5, BatchOptions{});
    const auto results = compiler.compileAll(queue, {dirty});
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[0].status, JobStatus::Degraded);
    EXPECT_NE(results[0].note.find("quarantined"), std::string::npos);

    EXPECT_EQ(results[1].status, JobStatus::Failed);
    EXPECT_NE(results[1].error.find("healthy region"),
              std::string::npos)
        << results[1].error;

    EXPECT_TRUE(results[2].ok()) << results[2].error;
}

TEST(BatchRobustness, DirtySnapshotFailsJobsWithoutQuarantine)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot dirty =
        vaq::test::uniformSnapshot(q5, 0.06, 0.004, 0.06);
    dirty.qubit(1).readoutError =
        std::numeric_limits<double>::quiet_NaN();
    BatchOptions options;
    options.sanitizeCalibration = false;

    const core::Mapper mapper = core::makeMapper({.name = "baseline"});
    BatchCompiler compiler(mapper, q5, options);
    const auto results = compiler.compileAll({workloads::ghz(3)}, {dirty});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(BatchRobustness, DegradedCompileKeepsTheRequestOptions)
{
    // A quarantined snapshot compiles into its healthy region; the
    // request's CompileOptions must reach that path too, so telemetry
    // switched off per request records no mapper samples.
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot poisoned = vaq::test::uniformSnapshot(q5);
    poisoned.qubit(3).t1Us =
        std::numeric_limits<double>::quiet_NaN();

    core::CompileRequest request;
    request.circuit = batchCircuits(1, 99)[0];
    request.policy = {.name = "baseline"};
    request.options.telemetryEnabled = false;

    const bool previous = obs::enabled();
    obs::setEnabled(true);
    obs::Registry::global().reset();
    const core::CompileResult result =
        core::compile(request, q5, poisoned);
    const obs::MetricsSnapshot metrics =
        obs::Registry::global().snapshot();
    obs::setEnabled(previous);

    EXPECT_EQ(result.status, JobStatus::Degraded);
    const auto it = metrics.histograms.find("mapper.compile.seconds");
    EXPECT_TRUE(it == metrics.histograms.end() || it->second.count == 0)
        << "degraded compile recorded mapper telemetry";
}

TEST(BatchRobustness, DegradedSnapshotBuildsOneRegionMatrixPerBatch)
{
    // The quarantined snapshot is inspected once per batch and every
    // job, at every thread, maps onto the one healthy-region context
    // built from it: one reliability matrix for the whole burst.
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot poisoned = vaq::test::uniformSnapshot(q5);
    poisoned.qubit(3).t1Us =
        std::numeric_limits<double>::quiet_NaN();

    const auto circuits = batchCircuits(8, 99);
    const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
    BatchCompiler compiler(mapper, q5, optionsWithThreads(4));
    const core::PathCacheStats before = core::pathCacheStats();
    const auto results = compiler.compileAll(circuits, {poisoned});
    const core::PathCacheStats after = core::pathCacheStats();

    for (const BatchResult &r : results)
        EXPECT_EQ(r.status, JobStatus::Degraded) << r.error;
    EXPECT_EQ(after.matrixMisses - before.matrixMisses, 1u);
}

TEST(BatchRobustness, SnapshotOfAnotherMachineFailsItsJobsOnly)
{
    // A snapshot shaped for another machine cannot build tables; its
    // jobs fail one by one with the shape error, the batch does not
    // throw, and the other snapshot's jobs compile.
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const topology::CouplingGraph line = topology::linear(7);
    const auto circuits = batchCircuits(3, 99);
    const core::Mapper mapper = referenceMapper();
    BatchCompiler compiler(mapper, q5, optionsWithThreads(2));
    const auto results = compiler.compileAll(
        circuits, {vaq::test::uniformSnapshot(q5),
                   vaq::test::uniformSnapshot(line)});

    ASSERT_EQ(results.size(), circuits.size() * 2);
    for (const BatchResult &r : results) {
        if (r.snapshot == 0) {
            EXPECT_EQ(r.status, JobStatus::Ok);
            continue;
        }
        EXPECT_EQ(r.status, JobStatus::Failed);
        EXPECT_EQ(r.errorCategory, ErrorCategory::Usage);
        EXPECT_EQ(r.error, "snapshot does not match machine shape");
        EXPECT_EQ(r.attempts, 1);
    }
}

TEST(BatchRobustness, UnusableSnapshotFailsItsJobsOnly)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto clean = vaq::test::uniformSnapshot(q5);
    calibration::Snapshot dead = clean;
    for (int q = 0; q < q5.numQubits(); ++q)
        dead.qubit(q).t1Us =
            std::numeric_limits<double>::quiet_NaN();

    const auto circuits = batchCircuits(4, 99);
    const core::Mapper mapper = referenceMapper();
    BatchCompiler compiler(mapper, q5, optionsWithThreads(2));
    const auto results =
        compiler.compileAll(circuits, {clean, dead});

    for (const BatchResult &r : results) {
        if (r.snapshot == 0) {
            EXPECT_EQ(r.status, JobStatus::Ok);
        } else {
            EXPECT_EQ(r.status, JobStatus::Failed);
            EXPECT_EQ(r.errorCategory, ErrorCategory::Calibration);
            EXPECT_EQ(r.attempts, 0);
            EXPECT_NE(r.error.find("quarantined"),
                      std::string::npos);
        }
    }
}

TEST(BatchRobustness, ExpiredDeadlineTimesJobsOut)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto snapshot = vaq::test::uniformSnapshot(q5);
    const auto circuits = batchCircuits(3, 99);

    BatchOptions options = optionsWithThreads(2);
    options.jobDeadlineMs = 1e-6; // expires before any checkpoint
    const core::Mapper mapper = referenceMapper();
    BatchCompiler compiler(mapper, q5, options);
    const auto results =
        compiler.compileAll(circuits, {snapshot});

    for (const BatchResult &r : results) {
        EXPECT_EQ(r.status, JobStatus::TimedOut);
        EXPECT_EQ(r.errorCategory, ErrorCategory::Timeout);
        EXPECT_NE(r.error.find("deadline"), std::string::npos);
        // The primary and the ladder's baseline both timed out.
        EXPECT_EQ(r.attempts, 1 + 1);
        EXPECT_FALSE(r.ok());
    }
}

/**
 * Burns most of wall-clock budget before throwing a retryable
 * fault: the ladder's next rung then starts with the job deadline
 * already spent.
 */
class SlowThrowingAllocator final : public core::Allocator
{
  public:
    explicit SlowThrowingAllocator(double burnMs) : _burnMs(burnMs)
    {}

    core::Layout allocate(
        const circuit::Circuit &,
        const core::CalibrationContext &) const override
    {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(_burnMs));
        throw CompileError("injected slow allocator fault");
    }

    std::string name() const override { return "slowpoke"; }

  private:
    double _burnMs;
};

TEST(BatchRobustness, DeadlineSpentByFirstAttemptTimesOutTheRetry)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto snapshot = vaq::test::uniformSnapshot(q5);
    Rng rng(7);
    std::vector<circuit::Circuit> circuits{
        vaq::test::randomCircuit(3, 12, rng)};

    // The job deadline is shared across ladder attempts: attempt 1
    // burns it all before failing, so the baseline retry gets a
    // zero budget and must cancel at its first checkpoint — NOT
    // succeed late and report a deceptively healthy Degraded.
    BatchOptions options = optionsWithThreads(1);
    options.jobDeadlineMs = 20.0;
    const core::Mapper mapper(
        "slowpoke",
        std::make_unique<SlowThrowingAllocator>(80.0),
        core::CostKind::SwapCount);
    BatchCompiler compiler(mapper, q5, options);
    const auto results =
        compiler.compileAll(circuits, {snapshot});

    ASSERT_EQ(results.size(), 1u);
    const BatchResult &r = results[0];
    EXPECT_EQ(r.status, JobStatus::TimedOut);
    EXPECT_NE(r.status, JobStatus::Degraded);
    EXPECT_EQ(r.errorCategory, ErrorCategory::Timeout);
    EXPECT_NE(r.error.find("deadline"), std::string::npos)
        << r.error;
    // Both rungs ran and count: the slow primary plus the
    // zero-budget baseline retry.
    EXPECT_EQ(r.attempts, 2);
    EXPECT_FALSE(r.ok());
}

/**
 * The acceptance gate of the robustness layer: a ~100-job batch
 * with injected failures (throwing mapper at one circuit, one
 * NaN-poisoned snapshot) completes with exactly the faulty jobs
 * marked, and all other results bit-identical to a clean run at
 * every thread count.
 */
TEST(BatchRobustness, InjectedFaultsLeaveOtherResultsBitIdentical)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const auto clean = vaq::test::uniformSnapshot(q5);
    calibration::Snapshot poisoned = clean;
    poisoned.qubit(3).t2Us =
        std::numeric_limits<double>::infinity();

    const std::size_t kCircuits = 50, kFaulty = 17;
    const auto circuits = batchCircuits(kCircuits, kFaulty);
    const core::Mapper faulty = throwingMapper();
    const core::Mapper reference = referenceMapper();

    // Clean reference: same allocator behavior, no fault, clean
    // snapshot, single thread.
    BatchCompiler refCompiler(reference, q5, optionsWithThreads(1));
    const auto refResults =
        refCompiler.compileAll(circuits, {clean});

    std::vector<std::string> baselineFingerprints;
    for (const std::size_t threads : {1u, 4u, 8u}) {
        BatchCompiler compiler(faulty, q5,
                               optionsWithThreads(threads));
        const auto results =
            compiler.compileAll(circuits, {clean, poisoned});
        ASSERT_EQ(results.size(), kCircuits * 2);

        std::vector<std::string> fingerprints;
        fingerprints.reserve(results.size());
        for (const BatchResult &r : results) {
            fingerprints.push_back(fingerprint(r));

            const bool threw = r.circuit == kFaulty;
            const bool dirty = r.snapshot == 1;
            if (threw) {
                // Rescued by the ladder on both snapshots.
                EXPECT_EQ(r.status, JobStatus::Degraded);
                EXPECT_EQ(r.policyUsed, "baseline");
            } else if (dirty) {
                EXPECT_EQ(r.status, JobStatus::Degraded);
                EXPECT_NE(r.note.find("quarantined"),
                          std::string::npos);
            } else {
                EXPECT_EQ(r.status, JobStatus::Ok);
                // Healthy jobs match the clean single-thread
                // reference exactly (the fingerprints embed the
                // full QASM and the analytic PST).
                const BatchResult &ref = refResults[r.circuit];
                EXPECT_EQ(circuit::toQasm(r.mapped.physical),
                          circuit::toQasm(ref.mapped.physical));
                EXPECT_EQ(r.mapped.insertedSwaps,
                          ref.mapped.insertedSwaps);
                EXPECT_EQ(r.analyticPst, ref.analyticPst);
            }
        }

        if (baselineFingerprints.empty())
            baselineFingerprints = std::move(fingerprints);
        else
            EXPECT_EQ(fingerprints, baselineFingerprints)
                << "batch output depends on thread count ("
                << threads << ")";
    }
}

TEST(BatchRobustness, FallbackLadderShape)
{
    EXPECT_EQ(core::fallbackLadder("vqa+vqm"),
              (std::vector<std::string>{"vqm", "baseline"}));
    EXPECT_EQ(core::fallbackLadder("vqa"),
              (std::vector<std::string>{"vqm", "baseline"}));
    EXPECT_EQ(core::fallbackLadder("vqm"),
              (std::vector<std::string>{"baseline"}));
    EXPECT_EQ(core::fallbackLadder("baseline"),
              std::vector<std::string>{});
    EXPECT_EQ(core::fallbackLadder("random"),
              (std::vector<std::string>{"baseline"}));
}

} // namespace
} // namespace vaq

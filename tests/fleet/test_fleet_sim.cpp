/**
 * @file
 * FleetSim tests: scripted fault scenarios (outage failover,
 * corruption tripping the breaker and healing at rollover, latency
 * spikes steering deadline-aware placement, partial quarantine
 * degrading compiles), the replicate policy, StatsHub publication,
 * the determinism contract (byte-identical summaries across repeats
 * and prewarm thread counts), and the chaos acceptance gap: under
 * an injected outage+corruption mix the failover+breaker scheduler
 * keeps >= 95% of jobs within deadline while the no-failover
 * baseline measurably does not.
 */
#include "fleet/sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fleet/stats.hpp"
#include "workloads/workloads.hpp"

namespace vaq::fleet
{
namespace
{

std::vector<circuit::Circuit>
smallWorkload()
{
    std::vector<circuit::Circuit> circuits;
    circuits.push_back(workloads::ghz(4));
    circuits.push_back(workloads::bernsteinVazirani(4));
    circuits.push_back(workloads::qft(4));
    return circuits;
}

/** Two-machine fleet for the scripted scenarios. */
std::vector<BackendSpec>
pairFleet()
{
    BackendSpec a;
    a.name = "alpha";
    a.graph = topology::ibmQ20Tokyo();
    a.calibrationSeed = 101;
    BackendSpec b;
    b.name = "beta";
    b.graph = topology::grid(4, 4);
    b.calibrationSeed = 202;
    return {a, b};
}

std::vector<FleetJob>
steadyJobs(std::size_t count, double deadlineUs = 80000.0,
           std::size_t shots = 512)
{
    JobStreamParams params;
    params.count = count;
    params.meanInterarrivalUs = 2500.0;
    params.relativeDeadlineUs = deadlineUs;
    params.shots = shots;
    return makeJobStream(smallWorkload().size(), params, 17);
}

FleetSummary
runScenario(const FleetOptions &options, const FaultPlan &plan,
            const std::vector<FleetJob> &jobs,
            std::vector<BackendSpec> specs = pairFleet())
{
    FleetSim sim(std::move(specs), smallWorkload(), options, plan);
    return sim.run(jobs);
}

/** Which machine takes the placements in a fault-free run —
 *  the scripted faults then target it. */
std::size_t
preferredMachine(const FleetOptions &options,
                 const std::vector<FleetJob> &jobs)
{
    const FleetSummary clean =
        runScenario(options, FaultPlan{}, jobs);
    std::size_t best = 0;
    for (std::size_t i = 1; i < clean.machines.size(); ++i) {
        if (clean.machines[i].placements >
            clean.machines[best].placements)
            best = i;
    }
    return best;
}

TEST(FleetBackend, PrewarmCompilesAgainstTheBackendsContext)
{
    // prewarm() hands the backend's context to the batch compiler,
    // clean or quarantined: no snapshot is inspected again and no
    // table is rebuilt.
    Backend backend(standardFleet(7)[1], {.name = "vqm"}, 64,
                    BreakerOptions{});
    std::vector<circuit::Circuit> circuits;
    for (const workloads::Workload &w : workloads::q5Suite())
        circuits.push_back(w.circuit);

    core::PathCacheStats before = core::pathCacheStats();
    backend.prewarm(circuits, 2);
    core::PathCacheStats after = core::pathCacheStats();
    EXPECT_EQ(after.matrixMisses - before.matrixMisses, 0u);
    EXPECT_EQ(backend.storeStats().writes, circuits.size());

    backend.quarantineLinks(0.1, 3);
    ASSERT_EQ(backend.health().kind,
              core::SnapshotHealth::Kind::Degraded);
    before = core::pathCacheStats();
    backend.prewarm(circuits, 2);
    after = core::pathCacheStats();
    EXPECT_EQ(after.matrixMisses - before.matrixMisses, 0u);
}

TEST(FleetSim, CleanRunCompletesEverythingDeterministically)
{
    FleetOptions options;
    options.seed = 17;
    const std::vector<FleetJob> jobs = steadyJobs(40);
    const FleetSummary a = runScenario(options, FaultPlan{}, jobs);
    EXPECT_EQ(a.jobs, 40u);
    EXPECT_EQ(a.completed, 40u);
    EXPECT_EQ(a.withinDeadline, 40u);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.timedOut, 0u);
    EXPECT_GT(a.stpt, 0.0);
    EXPECT_GT(a.makespanUs, 0.0);

    const FleetSummary b = runScenario(options, FaultPlan{}, jobs);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(FleetSim, OutageFailsOverToTheOtherMachine)
{
    FleetOptions options;
    options.seed = 17;
    // Heavy shots: service time dwarfs the interarrival gap, so the
    // queue builds and the outage catches copies in flight.
    const std::vector<FleetJob> jobs = steadyJobs(40, 0.0, 8000);
    const std::size_t target = preferredMachine(options, jobs);

    // Hard-down the preferred machine across the middle third of
    // the arrival window: in-flight copies on it die with the
    // outage's Internal category and must land on the other box.
    FaultEvent outage;
    outage.timeUs = 30000.0;
    outage.machine = target;
    outage.kind = FaultKind::Outage;
    outage.durationUs = 40000.0;
    FaultPlan plan;
    plan.events.push_back(outage);

    const FleetSummary failover = runScenario(options, plan, jobs);
    EXPECT_EQ(failover.completed, failover.jobs);
    EXPECT_GT(failover.machines[1 - target].placements, 0u);
    EXPECT_GT(failover.faultsInjected, 0u);
    EXPECT_GT(failover.machines[target].downtimeUs, 0.0);

    FleetOptions baselineOptions = options;
    baselineOptions.failover = false;
    const FleetSummary baseline =
        runScenario(baselineOptions, plan, jobs);
    // The naive arm loses whatever the outage caught in flight.
    EXPECT_LE(baseline.completed, failover.completed);
    EXPECT_GE(failover.retries + failover.failovers, 1u);
}

TEST(FleetSim, CorruptionTripsBreakerAndRolloverHeals)
{
    FleetOptions options;
    options.seed = 17;
    options.calibrationPeriodUs = 40000.0;
    const std::vector<FleetJob> jobs = steadyJobs(40);
    const std::size_t target = preferredMachine(options, jobs);

    FaultEvent corruption;
    corruption.timeUs = 10000.0;
    corruption.machine = target;
    corruption.kind = FaultKind::CalCorruption;
    corruption.magnitude = 0.8; // enough poison to reject
    FaultPlan plan;
    plan.events.push_back(corruption);

    const FleetSummary summary = runScenario(options, plan, jobs);
    // The breaker force-opened on the Rejected verdict...
    EXPECT_GE(summary.machines[target].breakerOpens, 1u);
    // ...rollovers healed the snapshot...
    EXPECT_GE(summary.machines[target].rollovers, 1u);
    // ...and the fleet absorbed the loss.
    EXPECT_EQ(summary.completed, summary.jobs);
}

TEST(FleetSim, LatencySpikeSteersDeadlineAwarePlacement)
{
    FleetOptions options;
    options.seed = 17;
    const std::vector<FleetJob> jobs = steadyJobs(40, 40000.0);
    const std::size_t target = preferredMachine(options, jobs);

    // A long, brutal slowdown on the preferred machine: placements
    // made on it during the window cannot meet the deadline, so
    // deadline-aware placement must route around it.
    FaultEvent spike;
    spike.timeUs = 0.0;
    spike.machine = target;
    spike.kind = FaultKind::LatencySpike;
    spike.durationUs = 120000.0;
    spike.magnitude = 2000.0;
    FaultPlan plan;
    plan.events.push_back(spike);

    const FleetSummary failover = runScenario(options, plan, jobs);
    FleetOptions baselineOptions = options;
    baselineOptions.failover = false;
    const FleetSummary baseline =
        runScenario(baselineOptions, plan, jobs);

    EXPECT_GT(failover.machines[1 - target].placements, 0u);
    EXPECT_GT(failover.withinDeadline, baseline.withinDeadline);
}

TEST(FleetSim, PartialQuarantineDegradesButCompletes)
{
    // One-machine fleet: after the quarantine event every compile
    // lands in the healthy region as a Degraded copy.
    std::vector<BackendSpec> specs(1);
    specs[0].name = "solo";
    specs[0].graph = topology::ibmFalcon27();
    specs[0].calibrationSeed = 404;

    FaultEvent quarantine;
    quarantine.timeUs = 5000.0;
    quarantine.machine = 0;
    quarantine.kind = FaultKind::PartialQuarantine;
    // A tenth of the heavy-hex links: enough to shrink the healthy
    // region (Degraded) without shattering it (Rejected).
    quarantine.magnitude = 0.1;
    FaultPlan plan;
    plan.events.push_back(quarantine);

    FleetOptions options;
    options.seed = 17;
    const std::vector<FleetJob> jobs = steadyJobs(30);
    const FleetSummary summary =
        runScenario(options, plan, jobs, specs);
    EXPECT_EQ(summary.completed, summary.jobs);
    EXPECT_GT(summary.degradedCopies, 0u);
}

TEST(FleetSim, ReplicatePolicySplitsStrongJobsIntoCopies)
{
    FleetOptions options;
    options.seed = 17;
    options.policy = PlacementPolicy::Replicate;
    options.replicateThreshold = 0.0; // always worth a weak copy
    const std::vector<FleetJob> jobs = steadyJobs(30);
    const FleetSummary summary =
        runScenario(options, FaultPlan{}, jobs);
    EXPECT_GT(summary.replicatedJobs, 0u);
    EXPECT_EQ(summary.completed, summary.jobs);
    // Both machines served copies.
    EXPECT_GT(summary.machines[0].placements, 0u);
    EXPECT_GT(summary.machines[1].placements, 0u);
}

TEST(FleetSim, PublishesSummaryToStatsHub)
{
    FleetOptions options;
    options.seed = 17;
    options.statsName = "unit-fleet";
    const std::vector<FleetJob> jobs = steadyJobs(10);
    const FleetSummary summary =
        runScenario(options, FaultPlan{}, jobs);

    const json::Value snapshot = StatsHub::global().snapshot();
    const json::Cursor cursor(snapshot);
    const json::Cursor fleet =
        cursor.at("fleets").at("unit-fleet");
    EXPECT_EQ(fleet.at("jobs").asInt(),
              static_cast<std::int64_t>(summary.jobs));
    EXPECT_EQ(json::write(fleet.value()),
              summary.fingerprint());
}

/** The chaos fixture the CI smoke and the acceptance gap share:
 *  a seeded outage+corruption mix over the standard fleet. */
FleetSummary
chaosRun(bool failover, std::size_t threads,
         std::uint64_t seed = 7)
{
    JobStreamParams stream;
    stream.count = 150;
    stream.meanInterarrivalUs = 2500.0;
    stream.relativeDeadlineUs = 80000.0;
    const std::vector<FleetJob> jobs =
        makeJobStream(smallWorkload().size(), stream, seed);
    const double horizonUs = jobs.back().arrivalUs;

    FaultPlanParams params;
    params.horizonUs = horizonUs;
    params.faultsPerMachine = 12.0;
    params.outageWeight = 0.6;
    params.corruptionWeight = 0.4;
    params.spikeWeight = 0.0;
    params.quarantineWeight = 0.0;
    params.meanOutageUs = 30000.0;
    const FaultPlan plan =
        generateFaultPlan(4, params, seed * 31 + 5);

    FleetOptions options;
    options.failover = failover;
    options.calibrationPeriodUs = horizonUs / 3.0;
    options.threads = threads;
    options.seed = seed;
    FleetSim sim(standardFleet(seed), smallWorkload(), options,
                 plan);
    return sim.run(jobs);
}

TEST(FleetSim, ChaosSummaryIsByteIdenticalAcrossThreadCounts)
{
    const FleetSummary t1 = chaosRun(true, 1);
    const FleetSummary t4 = chaosRun(true, 4);
    const FleetSummary t8 = chaosRun(true, 8);
    EXPECT_EQ(t1.fingerprint(), t4.fingerprint());
    EXPECT_EQ(t1.fingerprint(), t8.fingerprint());
    // And across repeats at the same thread count.
    const FleetSummary again = chaosRun(true, 4);
    EXPECT_EQ(t4.fingerprint(), again.fingerprint());
}

TEST(FleetSim, FailoverBeatsBaselineUnderOutageCorruptionMix)
{
    const FleetSummary failover = chaosRun(true, 1);
    const FleetSummary baseline = chaosRun(false, 1);
    ASSERT_EQ(failover.jobs, baseline.jobs);
    ASSERT_GT(failover.faultsInjected, 0u);

    const double failoverHit =
        static_cast<double>(failover.withinDeadline) /
        static_cast<double>(failover.jobs);
    const double baselineHit =
        static_cast<double>(baseline.withinDeadline) /
        static_cast<double>(baseline.jobs);
    // The acceptance gap: the robustness layer keeps >= 95% of
    // jobs within deadline under the injected mix; the naive arm
    // measurably does not.
    EXPECT_GE(failoverHit, 0.95)
        << "failover within-deadline " << failover.withinDeadline
        << "/" << failover.jobs;
    EXPECT_LT(baselineHit, 0.95)
        << "baseline within-deadline " << baseline.withinDeadline
        << "/" << baseline.jobs;
    EXPECT_GT(failoverHit, baselineHit);
    // The baseline's losses are real failures, not bookkeeping.
    EXPECT_GT(baseline.failed + baseline.timedOut, 0u);
    EXPECT_GT(failover.retries, 0u);

    // Sanity on the injected intensity: total downtime is a
    // material fraction of fleet capacity, not a rounding error.
    double downtimeUs = 0.0;
    for (const MachineSummary &machine : failover.machines)
        downtimeUs += machine.downtimeUs;
    const double fleetCapacityUs =
        failover.makespanUs *
        static_cast<double>(failover.machines.size());
    EXPECT_GT(downtimeUs / fleetCapacityUs, 0.02);
    EXPECT_LT(downtimeUs / fleetCapacityUs, 0.5);
}

/** Fleet whose rollovers redraw little hardware, so the backends'
 *  certified store serves have something to certify. */
std::vector<BackendSpec>
gentleDriftFleet()
{
    std::vector<BackendSpec> specs = pairFleet();
    for (BackendSpec &spec : specs)
        spec.sparseDriftFraction = 0.1;
    return specs;
}

/** A tolerance the gentle-drift fleet's stores serve bounds under:
 *  no drifted candidate there has a bound in (0, 1e-3], so 1e-3
 *  serves exactly what 0 does. */
constexpr double kCertifiedTol = 1e-2;

FleetOptions
predictionReuseOptions(double staleness_tol, std::size_t threads,
                       const std::vector<FleetJob> &jobs)
{
    FleetOptions options;
    options.seed = 17;
    options.threads = threads;
    options.stalenessTol = staleness_tol;
    options.calibrationPeriodUs = jobs.back().arrivalUs / 4.0;
    return options;
}

FleetSummary
predictionReuseRun(double staleness_tol, std::size_t threads)
{
    const std::vector<FleetJob> jobs = steadyJobs(60);
    return runScenario(predictionReuseOptions(staleness_tol, threads,
                                              jobs),
                       FaultPlan{}, jobs, gentleDriftFleet());
}

TEST(FleetSim, BackendStoresDecideReuseAcrossRollovers)
{
    // The scheduler keeps no reuse certificate of its own: after a
    // rollover it recompiles through each backend's store, which
    // serves on a certified bound when the tolerance allows and on
    // a zero bound (delta) otherwise.
    const auto storeTotals = [](double staleness_tol) {
        const std::vector<FleetJob> jobs = steadyJobs(60);
        FleetSim sim(gentleDriftFleet(), smallWorkload(),
                     predictionReuseOptions(staleness_tol, 1, jobs));
        const FleetSummary summary = sim.run(jobs);
        EXPECT_EQ(summary.completed, summary.jobs);
        store::StoreStats total;
        for (std::size_t i = 0; i < sim.backendCount(); ++i) {
            total.boundReuse += sim.backend(i).storeStats().boundReuse;
            total.deltaReuse += sim.backend(i).storeStats().deltaReuse;
        }
        return total;
    };
    EXPECT_GT(storeTotals(kCertifiedTol).boundReuse, 0u);
    const store::StoreStats zeroBoundOnly = storeTotals(0.0);
    EXPECT_EQ(zeroBoundOnly.boundReuse, 0u);
    EXPECT_GT(zeroBoundOnly.deltaReuse, 0u);
}

TEST(FleetSim, CertifiedReuseKeepsSummariesByteIdentical)
{
    // The determinism contract holds with the certified path on:
    // byte-equal summaries across prewarm thread counts.
    const FleetSummary t1 = predictionReuseRun(kCertifiedTol, 1);
    const FleetSummary t4 = predictionReuseRun(kCertifiedTol, 4);
    const FleetSummary t8 = predictionReuseRun(kCertifiedTol, 8);
    EXPECT_EQ(t1.fingerprint(), t4.fingerprint());
    EXPECT_EQ(t1.fingerprint(), t8.fingerprint());
}

} // namespace
} // namespace vaq::fleet

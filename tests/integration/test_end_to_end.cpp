/**
 * @file
 * Full-pipeline integration tests: synthetic characterization ->
 * compilation -> Monte-Carlo fault injection / trajectory execution
 * -> PST, mirroring the paper's two evaluation flows (Fig. 10 for
 * the simulated IBM-Q20 and Section 7 for the real IBM-Q5).
 */
#include <gtest/gtest.h>

#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "core/mapper.hpp"
#include "partition/partition.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/trajectory_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq
{
namespace
{

TEST(EndToEnd, SimulatedQ20Flow)
{
    // The Fig. 10 pipeline, miniature edition.
    const auto q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20);
    const auto snap = source.series(10).averaged();

    const auto bv = workloads::bernsteinVazirani(10);
    const auto mapped =
        core::makeMapper({.name = "vqa+vqm"}).map(bv, q20, snap);

    const sim::NoiseModel model(q20, snap);
    sim::ParallelFaultSimOptions options;
    options.trials = 100000;
    const auto result =
        sim::ParallelFaultSim(1).run(mapped.physical, model, options);

    EXPECT_GT(result.pst, 0.0);
    EXPECT_LT(result.pst, 1.0);
    EXPECT_NEAR(result.pst, result.analyticPst,
                5.0 * result.stderrPst + 1e-3);
}

TEST(EndToEnd, Q5HardwareSurrogateFlow)
{
    // The Section 7 pipeline: compile with calibration data, run
    // on the (simulated) machine, count correct outcomes.
    const auto q5 = topology::ibmQ5Tenerife();
    calibration::SyntheticSource source(
        q5, calibration::SyntheticParams{}, 42);
    const auto snap = source.nextCycle();

    const auto logical = workloads::bernsteinVazirani(4);
    const auto baseline =
        core::makeMapper({.name = "baseline"}).map(logical, q5, snap);
    const auto aware =
        core::makeMapper({.name = "vqa+vqm"}).map(logical, q5, snap);

    const sim::NoiseModel model(q5, snap);
    sim::TrajectoryOptions options;
    options.shots = 4096;
    sim::TrajectorySimulator machine(model, options);

    const auto ideal = sim::idealOutcomes(logical);
    auto physPst = [&](const core::MappedCircuit &mapped) {
        const auto counts = machine.run(mapped.physical);
        // Translate logical accept set to physical bit positions.
        std::vector<std::uint64_t> accept;
        for (std::uint64_t outcome : ideal) {
            std::uint64_t phys = 0;
            for (int q = 0; q < logical.numQubits(); ++q) {
                if (outcome & (1ULL << q))
                    phys |= 1ULL << mapped.final.phys(q);
            }
            accept.push_back(phys & counts.measuredMask);
        }
        return sim::pstFromCounts(counts, accept);
    };

    const double pstBaseline = physPst(baseline);
    const double pstAware = physPst(aware);
    EXPECT_GT(pstBaseline, 0.1);
    EXPECT_GT(pstAware, 0.1);
    // The variation-aware result holds up on the richer error
    // model too (>= within noise).
    EXPECT_GT(pstAware, pstBaseline - 0.1);
}

TEST(EndToEnd, CalibrationPersistenceRoundTrip)
{
    // Snapshot -> CSV -> snapshot -> identical compilation result.
    const auto q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20);
    const auto snap = source.nextCycle();
    const auto reloaded =
        calibration::fromCsv(calibration::toCsv(snap, q20), q20);

    const auto qft = workloads::qft(8);
    const auto a = core::makeMapper({.name = "vqm"}).map(qft, q20, snap);
    const auto b = core::makeMapper({.name = "vqm"}).map(qft, q20, reloaded);
    EXPECT_EQ(a.physical, b.physical);
    EXPECT_EQ(a.initial.progToPhys(), b.initial.progToPhys());
}

TEST(EndToEnd, PartitioningFlow)
{
    const auto q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20);
    const auto snap = source.series(5).averaged();
    const auto mapper = core::makeMapper({.name = "vqa+vqm"});

    partition::PartitionOptions options;
    options.candidateRegions = 6;
    const auto report = partition::comparePartitioning(
        workloads::ghz(8), q20, snap, mapper, options);

    // Both modes produce executable circuits.
    const sim::NoiseModel model(q20, snap);
    EXPECT_NO_THROW(sim::checkExecutable(
        report.single.mapped.physical, model));
    for (const auto &copy : report.dual) {
        EXPECT_NO_THROW(
            sim::checkExecutable(copy.mapped.physical, model));
    }
    EXPECT_GT(report.singleStpt, 0.0);
    EXPECT_GT(report.dualStpt, 0.0);
}

TEST(EndToEnd, RecompilationTracksDailyCalibration)
{
    // Fig. 14 mechanism: per-day recompilation adapts to that
    // day's weak links; compiled circuits differ across days.
    const auto q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20);
    const auto series = source.series(6);
    const auto bv = workloads::bernsteinVazirani(10);
    const auto mapper = core::makeMapper({.name = "vqa+vqm"});

    std::set<std::vector<int>> layouts;
    for (const auto &snap : series.snapshots()) {
        layouts.insert(
            mapper.map(bv, q20, snap).initial.progToPhys());
    }
    // At least two distinct placements across six days.
    EXPECT_GE(layouts.size(), 2u);
}

} // namespace
} // namespace vaq

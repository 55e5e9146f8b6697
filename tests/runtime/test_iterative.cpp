#include "runtime/iterative.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/error.hpp"
#include "sim/trajectory_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::runtime
{
namespace
{

// The runner borrows its graph, so it refuses a temporary.
static_assert(std::is_constructible_v<IterativeRunner,
                                      const topology::CouplingGraph &,
                                      Machine>);
static_assert(!std::is_constructible_v<IterativeRunner,
                                       topology::CouplingGraph, Machine>);

TEST(TrialLog, MajorityAndConfidence)
{
    TrialLog log;
    log.outcomes[0b011] = 70;
    log.outcomes[0b001] = 20;
    log.outcomes[0b111] = 10;
    log.trials = 100;
    EXPECT_EQ(log.inferredOutcome(), 0b011u);
    EXPECT_DOUBLE_EQ(log.confidence(), 0.7);
    EXPECT_DOUBLE_EQ(log.frequencyOf(0b001), 0.2);
    EXPECT_DOUBLE_EQ(log.frequencyOf(0b100), 0.0);
}

TEST(TrialLog, EmptyLogRejected)
{
    TrialLog log;
    EXPECT_THROW(log.inferredOutcome(), VaqError);
    EXPECT_THROW(log.confidence(), VaqError);
}

TEST(TrialLog, GuardsAgreeOnMalformedLog)
{
    // Regression: confidence() guarded on trials > 0 while
    // inferredOutcome() guarded on outcomes being non-empty, so a
    // log claiming trials but recording no outcomes passed the
    // first guard and surfaced the second one's unrelated error
    // from inside confidence(). Both guards now reject explicitly.
    TrialLog log;
    log.trials = 50;
    EXPECT_THROW(log.inferredOutcome(), VaqError);
    EXPECT_THROW(log.confidence(), VaqError);
    EXPECT_DOUBLE_EQ(log.frequencyOf(0), 0.0);
}

TEST(TrialLog, TieBreaksTowardLowestOutcome)
{
    // Documented tie-break: equal counts resolve to the numerically
    // lowest outcome (ascending std::map walk, strictly-greater
    // replacement), independent of insertion order.
    TrialLog log;
    log.outcomes[0b110] = 40;
    log.outcomes[0b001] = 40;
    log.outcomes[0b010] = 20;
    log.trials = 100;
    EXPECT_EQ(log.inferredOutcome(), 0b001u);
    EXPECT_DOUBLE_EQ(log.confidence(), 0.4);
}

class IterativeTest : public ::testing::Test
{
  protected:
    IterativeTest()
        : graph(topology::ibmQ5Tenerife()),
          truth(test::uniformSnapshot(graph, 0.06, 0.004, 0.06))
    {}

    Machine
    machine()
    {
        return [this](const circuit::Circuit &c,
                      std::size_t shots) {
            const sim::NoiseModel model(graph, truth);
            sim::TrajectoryOptions options;
            options.shots = shots;
            options.seed = 11;
            sim::TrajectorySimulator sim(model, options);
            return sim.run(c);
        };
    }

    topology::CouplingGraph graph;
    calibration::Snapshot truth;
};

TEST_F(IterativeTest, BvSecretInferredDespiteNoise)
{
    // The Fig. 4 claim: noisy trials still let the log reveal the
    // answer. The hidden string of bv-4 is 0b111.
    const IterativeRunner runner(graph, machine());
    const auto job = runner.run(
        workloads::bernsteinVazirani(4),
        core::makeMapper({.name = "vqa+vqm"}), truth, 4096);
    EXPECT_EQ(job.log.inferredOutcome(), 0b111u);
    EXPECT_GT(job.log.confidence(), 0.3);
    EXPECT_LT(job.log.confidence(), 1.0);
    EXPECT_EQ(job.log.trials, 4096u);
}

TEST_F(IterativeTest, GhzLogIsBimodal)
{
    const IterativeRunner runner(graph, machine());
    const auto job =
        runner.run(workloads::ghz(3), core::makeMapper({.name = "baseline"}),
                   truth, 4096);
    // The two legitimate outcomes dominate the log.
    const double good = job.log.frequencyOf(0b000) +
                        job.log.frequencyOf(0b111);
    EXPECT_GT(good, 0.6);
}

TEST_F(IterativeTest, AwareCompilationRaisesConfidence)
{
    // Make one Tenerife link terrible; the aware policy avoids it
    // and the log becomes cleaner.
    auto skewed = truth;
    skewed.setLinkError(graph.linkIndex(0, 1), 0.30);
    skewed.setLinkError(graph.linkIndex(0, 2), 0.18);
    auto machineSkewed = [this, &skewed](
                             const circuit::Circuit &c,
                             std::size_t shots) {
        const sim::NoiseModel model(graph, skewed);
        sim::TrajectoryOptions options;
        options.shots = shots;
        options.seed = 13;
        sim::TrajectorySimulator sim(model, options);
        return sim.run(c);
    };
    const IterativeRunner runner(graph, machineSkewed);
    const auto base =
        runner.run(workloads::triSwap(),
                   core::makeMapper({.name = "baseline"}), skewed, 4096);
    const auto aware =
        runner.run(workloads::triSwap(),
                   core::makeMapper({.name = "vqa+vqm"}), skewed, 4096);
    EXPECT_EQ(aware.log.inferredOutcome(), 0b100u);
    EXPECT_GE(aware.log.confidence(),
              base.log.confidence() - 0.02);
}

TEST_F(IterativeTest, Validation)
{
    EXPECT_THROW(IterativeRunner(graph, Machine{}), VaqError);
    const IterativeRunner runner(graph, machine());
    EXPECT_THROW(runner.run(workloads::ghz(3),
                            core::makeMapper({.name = "baseline"}), truth,
                            0),
                 VaqError);
}

TEST_F(IterativeTest, LogRecordsRequestedTrials)
{
    const IterativeRunner runner(graph, machine());
    const auto job = runner.run(
        workloads::ghz(3), core::makeMapper({.name = "baseline"}),
        truth, 512);
    EXPECT_EQ(job.log.trials, 512u);
    EXPECT_EQ(job.log.requestedTrials, 512u);
}

TEST_F(IterativeTest, EarlyStoppingMachineIsLegal)
{
    // A machine running adaptive early stopping may return fewer
    // trials than requested; the log must report what actually ran
    // against what was asked, and inference must divide by the
    // actual count.
    auto earlyStop = [this](const circuit::Circuit &c,
                            std::size_t shots) {
        sim::ShotCounts counts = machine()(c, shots / 2);
        return counts;
    };
    const IterativeRunner runner(graph, earlyStop);
    const auto job = runner.run(
        workloads::ghz(3), core::makeMapper({.name = "baseline"}),
        truth, 1000);
    EXPECT_EQ(job.log.trials, 500u);
    EXPECT_EQ(job.log.requestedTrials, 1000u);

    std::size_t recorded = 0;
    for (const auto &[outcome, count] : job.log.outcomes)
        recorded += count;
    EXPECT_EQ(recorded, job.log.trials);
    // Frequencies are fractions of the trials that ran, so they
    // still sum to one.
    double total = 0.0;
    for (const auto &[outcome, count] : job.log.outcomes)
        total += job.log.frequencyOf(outcome);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(IterativeTest, MachineTrialAccountingRejected)
{
    // Zero trials is always malformed; *more* trials than requested
    // is a machine bug (the inference would silently divide a
    // too-large log by the wrong base otherwise).
    auto silent = [](const circuit::Circuit &,
                     std::size_t) { return sim::ShotCounts{}; };
    const IterativeRunner zeroRunner(graph, silent);
    EXPECT_THROW(
        zeroRunner.run(workloads::ghz(3),
                       core::makeMapper({.name = "baseline"}),
                       truth, 100),
        VaqError);

    auto overCount = [this](const circuit::Circuit &c,
                            std::size_t shots) {
        return machine()(c, shots + 1);
    };
    const IterativeRunner overRunner(graph, overCount);
    EXPECT_THROW(
        overRunner.run(workloads::ghz(3),
                       core::makeMapper({.name = "baseline"}),
                       truth, 100),
        VaqError);
}

} // namespace
} // namespace vaq::runtime

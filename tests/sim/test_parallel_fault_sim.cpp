#include "sim/parallel_fault_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;

class ParallelFaultSimTest : public ::testing::Test
{
  protected:
    ParallelFaultSimTest()
        : graph(topology::ibmQ5Tenerife()),
          snap(test::uniformSnapshot(graph)), workload(5)
    {
        workload.h(0).cx(0, 1).cx(1, 2).swap(2, 3).cx(3, 4)
            .measureAll();
    }

    topology::CouplingGraph graph;
    calibration::Snapshot snap;
    Circuit workload;
};

TEST_F(ParallelFaultSimTest, BitIdenticalAcrossThreadCounts)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 100'000;
    options.seed = 42;
    options.chunkTrials = 4096;

    const FaultSimResult one =
        ParallelFaultSim(1).run(workload, model, options);
    const FaultSimResult two =
        ParallelFaultSim(2).run(workload, model, options);
    const FaultSimResult eight =
        ParallelFaultSim(8).run(workload, model, options);

    EXPECT_EQ(one.trials, options.trials);
    EXPECT_EQ(one.successes, two.successes);
    EXPECT_EQ(one.successes, eight.successes);
    EXPECT_DOUBLE_EQ(one.pst, eight.pst);
    EXPECT_DOUBLE_EQ(one.stderrPst, eight.stderrPst);
}

TEST_F(ParallelFaultSimTest, RepeatedRunsAreDeterministic)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSim engine(4);
    ParallelFaultSimOptions options;
    options.trials = 50'000;
    const auto a = engine.run(workload, model, options);
    const auto b = engine.run(workload, model, options);
    EXPECT_EQ(a.successes, b.successes);

    options.seed = 99;
    const auto other = engine.run(workload, model, options);
    EXPECT_NE(a.successes, other.successes);
}

TEST_F(ParallelFaultSimTest, TracksAnalyticPst)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 400'000;
    const FaultSimResult result =
        ParallelFaultSim().run(workload, model, options);
    EXPECT_NEAR(result.pst, result.analyticPst,
                4.0 * result.stderrPst + 1e-4);
    EXPECT_DOUBLE_EQ(result.analyticPst,
                     analyticPst(workload, model));
}

TEST_F(ParallelFaultSimTest, PartialFinalChunkRunsExactBudget)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 10'001;
    options.chunkTrials = 1000;
    const auto result =
        ParallelFaultSim().run(workload, model, options);
    EXPECT_EQ(result.trials, 10'001u);
    EXPECT_LE(result.successes, result.trials);
}

TEST_F(ParallelFaultSimTest, AdaptiveModeStopsEarly)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 1'000'000;
    options.chunkTrials = 1000;
    options.targetStderr = 0.005;
    const auto result =
        ParallelFaultSim().run(workload, model, options);
    EXPECT_LT(result.trials, options.trials);
    EXPECT_LE(result.stderrPst, options.targetStderr);
    EXPECT_GT(result.trials, 0u);
}

TEST_F(ParallelFaultSimTest, AdaptiveStopIsThreadCountInvariant)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 1'000'000;
    options.chunkTrials = 1000;
    options.targetStderr = 0.004;

    const auto one = ParallelFaultSim(1).run(workload, model,
                                             options);
    const auto eight = ParallelFaultSim(8).run(workload, model,
                                               options);
    EXPECT_EQ(one.trials, eight.trials);
    EXPECT_EQ(one.successes, eight.successes);
}

TEST_F(ParallelFaultSimTest, UnreachableTargetRunsFullBudget)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 20'000;
    options.chunkTrials = 1000;
    options.targetStderr = 1e-9; // needs ~1e17 trials
    const auto result =
        ParallelFaultSim().run(workload, model, options);
    EXPECT_EQ(result.trials, options.trials);
}

TEST_F(ParallelFaultSimTest, BatchMatchesIndividualRuns)
{
    const NoiseModel model(graph, snap);
    std::vector<Circuit> sweep;
    {
        Circuit a(5);
        a.cx(0, 1).measureAll();
        Circuit b(5);
        b.h(0).cx(0, 1).cx(1, 2).measureAll();
        sweep.push_back(a);
        sweep.push_back(b);
        sweep.push_back(workload);
    }
    ParallelFaultSimOptions options;
    options.trials = 30'000;

    ParallelFaultSim engine(4);
    const auto batch = engine.runBatch(sweep, model, options);
    ASSERT_EQ(batch.size(), sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto solo = engine.run(sweep[i], model, options);
        EXPECT_EQ(batch[i].successes, solo.successes);
        EXPECT_EQ(batch[i].trials, solo.trials);
        EXPECT_DOUBLE_EQ(batch[i].analyticPst, solo.analyticPst);
    }
}

TEST_F(ParallelFaultSimTest, EmptyBatchReturnsNothing)
{
    const NoiseModel model(graph, snap);
    const auto results = ParallelFaultSim().runBatch(
        std::span<const Circuit>{}, model, {});
    EXPECT_TRUE(results.empty());
}

TEST_F(ParallelFaultSimTest, BoundaryRunsReportPositiveStderr)
{
    // All-success: the perfect machine.
    const auto perfect = test::uniformSnapshot(graph, 0.0, 0.0, 0.0);
    const NoiseModel noiseless(graph, perfect,
                               CoherenceMode::None);
    ParallelFaultSimOptions options;
    options.trials = 2000;
    ParallelFaultSim engine;
    const auto good = engine.run(workload, noiseless, options);
    EXPECT_EQ(good.successes, good.trials);
    EXPECT_GT(good.stderrPst, 0.0);

    // All-failure: a link that always errors.
    auto broken = snap;
    broken.setLinkError(graph.linkIndex(0, 1), 1.0);
    const NoiseModel hopeless(graph, broken, CoherenceMode::None);
    Circuit c(5);
    c.cx(0, 1);
    const auto bad = engine.run(c, hopeless, options);
    EXPECT_EQ(bad.successes, 0u);
    EXPECT_GT(bad.stderrPst, 0.0);
}

TEST_F(ParallelFaultSimTest, OptionsValidated)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSim engine;
    ParallelFaultSimOptions options;
    options.trials = 0;
    EXPECT_THROW(engine.run(workload, model, options), VaqError);
    options.trials = 100;
    options.chunkTrials = 0;
    EXPECT_THROW(engine.run(workload, model, options), VaqError);
    options.chunkTrials = 10;
    options.targetStderr = -0.1;
    EXPECT_THROW(engine.run(workload, model, options), VaqError);
}

TEST_F(ParallelFaultSimTest, CorruptCalibrationIsRejected)
{
    auto corrupt = snap;
    corrupt.qubit(0).readoutError = 1.5; // out of [0, 1]
    const NoiseModel model(graph, corrupt, CoherenceMode::None);
    Circuit c(5);
    c.measure(0);
    EXPECT_THROW(ParallelFaultSim().run(c, model, {}), VaqError);
    EXPECT_THROW(analyticPst(c, model), VaqError);
}

} // namespace
} // namespace vaq::sim

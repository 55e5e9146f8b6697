#include "sim/fault_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/mapper.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;

class FaultSimTest : public ::testing::Test
{
  protected:
    FaultSimTest()
        : graph(topology::ibmQ5Tenerife()),
          snap(test::uniformSnapshot(graph))
    {}

    topology::CouplingGraph graph;
    calibration::Snapshot snap;
};

TEST_F(FaultSimTest, ExecutableCheckRejectsUnroutedCircuits)
{
    const NoiseModel model(graph, snap);
    Circuit bad(5);
    bad.cx(0, 4); // not a Tenerife link
    EXPECT_THROW(checkExecutable(bad, model), VaqError);
    EXPECT_THROW(analyticPst(bad, model), VaqError);

    Circuit good(5);
    good.cx(0, 1).cx(2, 3);
    EXPECT_NO_THROW(checkExecutable(good, model));
}

TEST_F(FaultSimTest, ExecutableCheckRejectsWideCircuits)
{
    const NoiseModel model(graph, snap);
    Circuit wide(6);
    wide.h(5);
    EXPECT_THROW(checkExecutable(wide, model), VaqError);
}

TEST_F(FaultSimTest, AnalyticPstOfEmptyCircuitIsOne)
{
    const NoiseModel model(graph, snap);
    EXPECT_DOUBLE_EQ(analyticPst(Circuit(5), model), 1.0);
}

TEST_F(FaultSimTest, AnalyticPstSingleGate)
{
    const NoiseModel model(graph, snap, CoherenceMode::None);
    Circuit c(5);
    c.cx(0, 1);
    EXPECT_NEAR(analyticPst(c, model), 0.96, 1e-12);
}

TEST_F(FaultSimTest, AnalyticPstIsProductOfSuccesses)
{
    const NoiseModel model(graph, snap, CoherenceMode::None);
    Circuit c(5);
    c.h(0).cx(0, 1).measure(0);
    EXPECT_NEAR(analyticPst(c, model),
                (1.0 - 0.003) * 0.96 * (1.0 - 0.03), 1e-12);
}

TEST_F(FaultSimTest, BarriersAreFree)
{
    const NoiseModel model(graph, snap);
    Circuit plain(5), withBarriers(5);
    plain.h(0).cx(0, 1);
    withBarriers.barrier().h(0).barrier().cx(0, 1).barrier();
    EXPECT_DOUBLE_EQ(analyticPst(plain, model),
                     analyticPst(withBarriers, model));
}

TEST_F(FaultSimTest, MonteCarloMatchesAnalytic)
{
    const NoiseModel model(graph, snap);
    Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).swap(2, 3).measureAll();

    ParallelFaultSimOptions options;
    options.trials = 400000;
    const FaultSimResult result =
        ParallelFaultSim(1).run(c, model, options);
    EXPECT_EQ(result.trials, options.trials);
    EXPECT_NEAR(result.pst, result.analyticPst,
                4.0 * result.stderrPst + 1e-4);
}

TEST_F(FaultSimTest, MonteCarloIsDeterministicPerSeed)
{
    const NoiseModel model(graph, snap);
    Circuit c(5);
    c.cx(0, 1).cx(1, 2).measureAll();
    ParallelFaultSimOptions options;
    options.trials = 10000;
    options.seed = 77;
    const auto a = ParallelFaultSim(1).run(c, model, options);
    const auto b = ParallelFaultSim(1).run(c, model, options);
    EXPECT_EQ(a.successes, b.successes);

    options.seed = 78;
    const auto other = ParallelFaultSim(1).run(c, model, options);
    EXPECT_NE(a.successes, other.successes);
}

TEST_F(FaultSimTest, WorseLinksLowerPst)
{
    Circuit c(5);
    c.cx(0, 1).cx(0, 1).cx(0, 1).measureAll();

    auto weak = snap;
    weak.setLinkError(graph.linkIndex(0, 1), 0.2);
    const NoiseModel good(graph, snap);
    const NoiseModel bad(graph, weak);
    EXPECT_GT(analyticPst(c, good), analyticPst(c, bad));
}

TEST_F(FaultSimTest, IdleModeChargesIdleQubits)
{
    // Qubit 1 acts, then must wait for the busy 2-3 pair before
    // its next gate (a real dependency — ASAP cannot pack it):
    // only the idle-aware mode charges that waiting window.
    Circuit c(5);
    c.cx(0, 1);
    for (int i = 0; i < 20; ++i)
        c.cx(2, 3);
    c.cx(1, 2);
    const NoiseModel perOp(graph, snap, CoherenceMode::PerOp);
    const NoiseModel idle(graph, snap, CoherenceMode::Idle);
    EXPECT_GT(analyticPst(c, perOp), analyticPst(c, idle));
}

TEST_F(FaultSimTest, ZeroErrorMachineAlwaysSucceeds)
{
    auto perfect = test::uniformSnapshot(graph, 0.0, 0.0, 0.0);
    const NoiseModel model(graph, perfect,
                           CoherenceMode::None);
    Circuit c(5);
    c.h(0).cx(0, 1).measureAll();
    ParallelFaultSimOptions options;
    options.trials = 1000;
    const auto result = ParallelFaultSim(1).run(c, model, options);
    EXPECT_EQ(result.successes, result.trials);
    EXPECT_DOUBLE_EQ(result.analyticPst, 1.0);
}

TEST_F(FaultSimTest, ResultAnalyticSharesAnalyticPstCodePath)
{
    // ParallelFaultSim and analyticPst() reduce the same collected
    // probabilities through one helper; the reported closed forms
    // must be bit-identical, not merely close.
    const NoiseModel model(graph, snap, CoherenceMode::Idle);
    Circuit c(5);
    c.h(0).cx(0, 1);
    for (int i = 0; i < 10; ++i)
        c.cx(2, 3);
    c.cx(1, 2).measureAll();
    ParallelFaultSimOptions options;
    options.trials = 1000;
    const auto result = ParallelFaultSim(1).run(c, model, options);
    EXPECT_DOUBLE_EQ(result.analyticPst, analyticPst(c, model));
}

TEST(FaultSimStderr, BoundaryTalliesNeverReportZero)
{
    // All-success / all-failure used to report stderr == 0 via the
    // normal approximation; the Wilson/rule-of-three bound keeps the
    // error bar positive so adaptive stopping cannot fire spuriously.
    EXPECT_GT(detail::pstStandardError(0, 1000), 0.0);
    EXPECT_GT(detail::pstStandardError(1000, 1000), 0.0);
    // Wilson z = 1 half-width at the boundary is 1/(2(n+1)).
    EXPECT_DOUBLE_EQ(detail::pstStandardError(0, 1000),
                     0.5 / 1001.0);
    EXPECT_DOUBLE_EQ(detail::pstStandardError(1000, 1000),
                     0.5 / 1001.0);
}

TEST(FaultSimStderr, BoundaryBoundShrinksWithTrials)
{
    EXPECT_GT(detail::pstStandardError(0, 100),
              detail::pstStandardError(0, 10'000));
    EXPECT_GT(detail::pstStandardError(0, 10'000),
              detail::pstStandardError(0, 1'000'000));
}

TEST(FaultSimStderr, InteriorMatchesNormalApproximation)
{
    const double p = 400.0 / 1000.0;
    EXPECT_DOUBLE_EQ(detail::pstStandardError(400, 1000),
                     std::sqrt(p * (1.0 - p) / 1000.0));
}

TEST(FaultSimStderr, BoundaryResultsSurfaceTheBound)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto perfect = test::uniformSnapshot(graph, 0.0, 0.0, 0.0);
    const NoiseModel model(graph, perfect, CoherenceMode::None);
    Circuit c(5);
    c.h(0).cx(0, 1).measureAll();
    ParallelFaultSimOptions options;
    options.trials = 500;
    const auto result = ParallelFaultSim(1).run(c, model, options);
    EXPECT_DOUBLE_EQ(result.pst, 1.0);
    EXPECT_DOUBLE_EQ(result.stderrPst, 0.5 / 501.0);
}

TEST(FaultSimProbs, CorruptCalibrationThrowsInsteadOfClamping)
{
    const auto graph = topology::ibmQ5Tenerife();
    auto snap = test::uniformSnapshot(graph);
    snap.qubit(2).error1q = -0.25;
    const NoiseModel model(graph, snap, CoherenceMode::None);
    Circuit c(5);
    c.h(2);
    EXPECT_THROW(analyticPst(c, model), VaqError);
    EXPECT_THROW(ParallelFaultSim(1).run(c, model, {}), VaqError);
}

TEST_F(FaultSimTest, OptionsValidated)
{
    const NoiseModel model(graph, snap);
    ParallelFaultSimOptions options;
    options.trials = 0;
    EXPECT_THROW(ParallelFaultSim(1).run(Circuit(5), model,
                                         options),
                 VaqError);
}

/**
 * The per-draw loop the threshold kernel replaced: one
 * Rng::bernoulli(p) per operation, stopping at the first error.
 */
detail::TrialTally
bernoulliLoopChunk(const std::vector<double> &probs,
                   std::size_t trials, Rng &rng)
{
    detail::TrialTally tally;
    tally.trials = trials;
    for (std::size_t t = 0; t < trials; ++t) {
        bool failed = false;
        for (double p : probs) {
            if (rng.bernoulli(p)) {
                failed = true;
                break;
            }
        }
        tally.successes += failed ? 0 : 1;
    }
    return tally;
}

TEST(FaultSimKernel, ThresholdKernelMatchesBernoulliLoopBitForBit)
{
    const double tiny = 4.9e-324; // smallest subnormal
    const double belowOne = std::nextafter(1.0, 0.0);
    std::vector<double> realistic;
    Rng pick(5);
    for (int i = 0; i < 40; ++i)
        realistic.push_back(pick.uniform(0.0, 0.05));
    const std::vector<std::vector<double>> cases = {
        // A certain error mid-vector: the ops before it still draw.
        {0.0, tiny, 0x1.0p-53, 0.5, 1.0, belowOne, 0.25, 0.0},
        {0.0, tiny, 0x1.0p-53, 0.5, 0.0, 0.01, 0.03},
        {0.02, belowOne, 0.1},
        // NaN draws a word and never fires; negatives draw nothing.
        {0.01, std::numeric_limits<double>::quiet_NaN(), -0.1, 0.03},
        {0.0, 0.0, 0.0},
        {},
        realistic,
    };

    std::size_t totalSuccesses = 0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const std::vector<double> &probs = cases[c];
        const detail::TrialThresholds compiled =
            detail::compileThresholds(probs);
        for (const std::uint64_t seed : {1ULL, 7ULL, 2019ULL}) {
            for (const std::size_t trials : {1, 17, 4096}) {
                SCOPED_TRACE(::testing::Message()
                             << "case " << c << " seed " << seed
                             << " trials " << trials);
                Rng reference(seed), kernel(seed);
                const detail::TrialTally expected =
                    bernoulliLoopChunk(probs, trials, reference);
                const detail::TrialTally got =
                    detail::simulateChunk(compiled, trials, kernel);
                EXPECT_EQ(got.trials, expected.trials);
                EXPECT_EQ(got.successes, expected.successes);
                // Same words consumed: both streams continue alike.
                EXPECT_EQ(kernel.nextRaw(), reference.nextRaw());
                totalSuccesses += got.successes;
            }
        }
    }
    EXPECT_GT(totalSuccesses, 0u);
}

/** Property sweep: the PST pipeline behaves across error scales. */
class FaultSimScaleSweep
    : public ::testing::TestWithParam<double>
{
};

TEST_P(FaultSimScaleSweep, MonteCarloTracksAnalytic)
{
    const double scale = GetParam();
    const auto q5 = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(
        q5, 0.04 * scale, 0.003 * scale, 0.03 * scale);
    const NoiseModel model(q5, snap);

    Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).swap(2, 3).cx(3, 4).measureAll();
    ParallelFaultSimOptions options;
    options.trials = 200000;
    const auto result = ParallelFaultSim(1).run(c, model, options);
    EXPECT_NEAR(result.pst, result.analyticPst,
                4.0 * result.stderrPst + 1e-4);
}

TEST_P(FaultSimScaleSweep, MoreErrorMeansLowerPst)
{
    const double scale = GetParam();
    const auto q5 = topology::ibmQ5Tenerife();

    Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    const auto snapBase = test::uniformSnapshot(q5, 0.04, 0.003,
                                                0.03);
    const auto snapScaled = test::uniformSnapshot(
        q5, 0.04 * scale, 0.003 * scale, 0.03 * scale);
    const NoiseModel a(q5, snapBase);
    const NoiseModel b(q5, snapScaled);
    if (scale > 1.0) {
        EXPECT_LT(analyticPst(c, b), analyticPst(c, a));
    } else if (scale < 1.0) {
        EXPECT_GT(analyticPst(c, b), analyticPst(c, a));
    }
}

INSTANTIATE_TEST_SUITE_P(ErrorScales, FaultSimScaleSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0,
                                           4.0));

TEST(FaultSim, GateErrorsDominateCoherenceOnBv20)
{
    // Reproduces the paper's Section 4.4 sanity check: for bv-20
    // on the Q20 model, gate errors are an order of magnitude
    // more likely to fail a trial than coherence errors.
    const auto q20 = topology::ibmQ20Tokyo();
    const auto snap = test::uniformSnapshot(q20, 0.043);
    const auto bv = core::makeMapper({.name = "baseline"})
                        .map(workloads::bernsteinVazirani(20),
                             q20, snap)
                        .physical;

    const NoiseModel full(q20, snap, CoherenceMode::PerOp);
    const NoiseModel gateOnly(q20, snap, CoherenceMode::None);

    const double pstFull = analyticPst(bv, full);
    const double pstGate = analyticPst(bv, gateOnly);
    // log-odds attribution: gate contribution vs coherence
    // contribution.
    const double gateLoss = -std::log(pstGate);
    const double cohLoss = -std::log(pstFull / pstGate);
    EXPECT_GT(gateLoss, 8.0 * cohLoss);
}

} // namespace
} // namespace vaq::sim

#include "sim/trajectory_sim.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/error.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;

// The simulator borrows its noise model, so it refuses a temporary.
static_assert(std::is_constructible_v<TrajectorySimulator,
                                      const NoiseModel &>);
static_assert(!std::is_constructible_v<TrajectorySimulator, NoiseModel>);
static_assert(!std::is_constructible_v<TrajectorySimulator, NoiseModel,
                                       const TrajectoryOptions &>);

class TrajectoryTest : public ::testing::Test
{
  protected:
    TrajectoryTest()
        : graph(topology::ibmQ5Tenerife()),
          snap(test::uniformSnapshot(graph))
    {}

    topology::CouplingGraph graph;
    calibration::Snapshot snap;
};

TEST_F(TrajectoryTest, IdealOutcomesOfBv)
{
    // BV with the all-ones secret returns the secret
    // deterministically on the data qubits.
    const Circuit bv = workloads::bernsteinVazirani(3);
    const auto outcomes = idealOutcomes(bv);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0], 0b011u); // two data qubits, both 1
}

TEST_F(TrajectoryTest, IdealOutcomesOfGhz)
{
    const Circuit ghz = workloads::ghz(3);
    const auto outcomes = idealOutcomes(ghz);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0], 0b000u);
    EXPECT_EQ(outcomes[1], 0b111u);
}

TEST_F(TrajectoryTest, IdealOutcomesOfTriSwap)
{
    const auto outcomes = idealOutcomes(workloads::triSwap());
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0], 0b100u);
}

TEST_F(TrajectoryTest, IdealOutcomesRequireMeasurement)
{
    Circuit c(2);
    c.h(0);
    EXPECT_THROW(idealOutcomes(c), VaqError);
}

TEST_F(TrajectoryTest, UniformOutputRejected)
{
    // QFT of |0..0> yields the uniform distribution: "success"
    // by output checking is meaningless and must be refused.
    Circuit c(3);
    c.h(0).h(1).h(2).measureAll();
    EXPECT_THROW(idealOutcomes(c), VaqError);
}

TEST_F(TrajectoryTest, NoiselessMachineAlwaysCorrect)
{
    auto perfect = test::uniformSnapshot(graph, 0.0, 0.0, 0.0);
    const NoiseModel model(graph, perfect,
                           CoherenceMode::None);
    TrajectoryOptions options;
    options.shots = 256;
    TrajectorySimulator sim(model, options);

    const Circuit bv = workloads::bernsteinVazirani(3);
    const ShotCounts counts = sim.run(bv);
    EXPECT_EQ(counts.shots, 256u);
    EXPECT_DOUBLE_EQ(
        pstFromCounts(counts, idealOutcomes(bv)), 1.0);
}

TEST_F(TrajectoryTest, NoiseDegradesPst)
{
    const NoiseModel model(graph, snap);
    TrajectoryOptions options;
    options.shots = 2048;
    TrajectorySimulator sim(model, options);
    const Circuit bv = workloads::bernsteinVazirani(3);
    const double pst =
        pstFromCounts(sim.run(bv), idealOutcomes(bv));
    EXPECT_LT(pst, 1.0);
    EXPECT_GT(pst, 0.3); // not destroyed either
}

TEST_F(TrajectoryTest, MoreNoiseLowerPst)
{
    const Circuit bv = workloads::bernsteinVazirani(3);
    const auto ideal = idealOutcomes(bv);

    const NoiseModel mild(graph, snap);
    auto worseSnap = test::uniformSnapshot(graph, 0.25, 0.02,
                                           0.10);
    const NoiseModel harsh(graph, worseSnap);

    TrajectoryOptions options;
    options.shots = 2048;
    const double pstMild = pstFromCounts(
        TrajectorySimulator(mild, options).run(bv), ideal);
    const double pstHarsh = pstFromCounts(
        TrajectorySimulator(harsh, options).run(bv), ideal);
    EXPECT_GT(pstMild, pstHarsh);
}

TEST_F(TrajectoryTest, DeterministicPerSeed)
{
    const NoiseModel model(graph, snap);
    TrajectoryOptions options;
    options.shots = 512;
    options.seed = 5;
    const Circuit bv = workloads::bernsteinVazirani(3);
    const auto a = TrajectorySimulator(model, options).run(bv);
    const auto b = TrajectorySimulator(model, options).run(bv);
    EXPECT_EQ(a.counts, b.counts);
}

TEST_F(TrajectoryTest, CountsSumToShots)
{
    const NoiseModel model(graph, snap);
    TrajectoryOptions options;
    options.shots = 333;
    const auto counts = TrajectorySimulator(model, options)
                            .run(workloads::ghz(3));
    std::size_t total = 0;
    for (const auto &[outcome, n] : counts.counts) {
        EXPECT_EQ(outcome & ~counts.measuredMask, 0u);
        total += n;
    }
    EXPECT_EQ(total, 333u);
}

TEST_F(TrajectoryTest, UnroutedCircuitRejected)
{
    const NoiseModel model(graph, snap);
    Circuit bad(5);
    bad.cx(0, 4).measureAll();
    TrajectorySimulator sim(model);
    EXPECT_THROW(sim.run(bad), VaqError);
}

TEST_F(TrajectoryTest, ReadoutNoiseAloneCausesErrors)
{
    auto readoutOnly = test::uniformSnapshot(graph, 0.0, 0.0,
                                             0.25);
    const NoiseModel model(graph, readoutOnly,
                           CoherenceMode::None);
    TrajectoryOptions options;
    options.shots = 2048;
    const Circuit bv = workloads::bernsteinVazirani(3);
    const double pst = pstFromCounts(
        TrajectorySimulator(model, options).run(bv),
        idealOutcomes(bv));
    // Two measured qubits, each flipped with p = 0.25.
    EXPECT_NEAR(pst, 0.75 * 0.75, 0.05);
}

TEST_F(TrajectoryTest, CrosstalkLowersPst)
{
    const NoiseModel model(graph, snap);
    const Circuit bv = workloads::bernsteinVazirani(3);
    const auto ideal = idealOutcomes(bv);

    TrajectoryOptions clean;
    clean.shots = 4096;
    TrajectoryOptions noisy = clean;
    noisy.crosstalk = 0.8;

    const double pstClean = pstFromCounts(
        TrajectorySimulator(model, clean).run(bv), ideal);
    const double pstNoisy = pstFromCounts(
        TrajectorySimulator(model, noisy).run(bv), ideal);
    EXPECT_GT(pstClean, pstNoisy);
}

TEST_F(TrajectoryTest, ZeroCrosstalkMatchesDefault)
{
    const NoiseModel model(graph, snap);
    const Circuit bv = workloads::bernsteinVazirani(3);
    TrajectoryOptions a, b;
    a.shots = b.shots = 512;
    b.crosstalk = 0.0;
    EXPECT_EQ(TrajectorySimulator(model, a).run(bv).counts,
              TrajectorySimulator(model, b).run(bv).counts);
}

TEST_F(TrajectoryTest, CrosstalkOptionValidated)
{
    const NoiseModel model(graph, snap);
    TrajectoryOptions bad;
    bad.crosstalk = 1.5;
    EXPECT_THROW(TrajectorySimulator(model, bad), VaqError);
    bad.crosstalk = -0.1;
    EXPECT_THROW(TrajectorySimulator(model, bad), VaqError);
}

TEST_F(TrajectoryTest, MeasuredMaskCoversMeasuredQubitsOnly)
{
    const NoiseModel model(graph, snap);
    Circuit c(5);
    c.h(0).cx(0, 1).measure(0).measure(1);
    const auto counts = TrajectorySimulator(model).run(c);
    EXPECT_EQ(counts.measuredMask, 0b00011u);
}

} // namespace
} // namespace vaq::sim

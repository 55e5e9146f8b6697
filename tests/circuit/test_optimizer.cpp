#include "circuit/optimizer.hpp"

#include <gtest/gtest.h>

#include "circuit/lower.hpp"
#include "common/rng.hpp"
#include "test_support.hpp"

namespace vaq::circuit
{
namespace
{

TEST(Optimizer, EmptyCircuitUnchanged)
{
    const Circuit c(3);
    EXPECT_EQ(optimize(c).size(), 0u);
}

TEST(Optimizer, CancelsAdjacentSelfInversePairs)
{
    Circuit c(2);
    c.h(0).h(0).x(1).x(1).cx(0, 1).cx(0, 1);
    OptimizerStats stats;
    const Circuit out = optimize(c, &stats);
    EXPECT_EQ(out.size(), 0u);
    EXPECT_EQ(stats.cancelledPairs, 3u);
}

TEST(Optimizer, CancelsSymmetricTwoQubitEitherOrder)
{
    Circuit c(2);
    c.cz(0, 1).cz(1, 0).swap(0, 1).swap(1, 0);
    EXPECT_EQ(optimize(c).size(), 0u);
}

TEST(Optimizer, CnotOrientationMatters)
{
    Circuit c(2);
    c.cx(0, 1).cx(1, 0);
    EXPECT_EQ(optimize(c).size(), 2u);
}

TEST(Optimizer, InterveningGateBlocksCancellation)
{
    Circuit c(2);
    c.h(0).x(0).h(0);
    EXPECT_EQ(optimize(c).size(), 3u);

    Circuit c2(2);
    c2.cx(0, 1).h(1).cx(0, 1);
    EXPECT_EQ(optimize(c2).size(), 3u);
}

TEST(Optimizer, UnrelatedGateDoesNotBlock)
{
    Circuit c(3);
    c.h(0).x(2).h(0);
    const Circuit out = optimize(c);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out.gates()[0].kind, GateKind::X);
}

TEST(Optimizer, MeasureIsAFence)
{
    Circuit c(1);
    c.h(0).measure(0).h(0);
    EXPECT_EQ(optimize(c).size(), 3u);
}

TEST(Optimizer, BarrierIsAFence)
{
    Circuit c(1);
    c.h(0).barrier().h(0);
    EXPECT_EQ(optimize(c).instructionCount(), 2u);
}

TEST(Optimizer, SInversePairs)
{
    Circuit c(1);
    c.s(0).sdg(0).t(0).tdg(0).tdg(0).t(0);
    EXPECT_EQ(optimize(c).size(), 0u);
}

TEST(Optimizer, FusesRotations)
{
    Circuit c(1);
    c.rz(0, 0.5).rz(0, 0.25).rz(0, -0.5);
    OptimizerStats stats;
    const Circuit out = optimize(c, &stats);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out.gates()[0].param, 0.25, 1e-12);
    EXPECT_EQ(stats.fusedRotations, 2u);
}

TEST(Optimizer, FusedZeroRotationDisappears)
{
    Circuit c(1);
    c.rx(0, 1.0).rx(0, -1.0);
    EXPECT_EQ(optimize(c).size(), 0u);
}

TEST(Optimizer, DropsIdentitiesAndZeroRotations)
{
    Circuit c(2);
    c.i(0).rz(1, 0.0).h(0);
    OptimizerStats stats;
    const Circuit out = optimize(c, &stats);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(stats.droppedIdentities, 2u);
}

TEST(Optimizer, CascadingCancellation)
{
    // Removing the inner pair exposes the outer pair.
    Circuit c(1);
    c.h(0).x(0).x(0).h(0);
    EXPECT_EQ(optimize(c).size(), 0u);
}

TEST(Optimizer, SwapLoweringBoundaryCancellation)
{
    // swap(0,1) lowered to CX(0,1) CX(1,0) CX(0,1) followed by
    // CX(0,1): the trailing pair cancels.
    Circuit c(2);
    c.swap(0, 1).cx(0, 1);
    const Circuit out = optimize(toNativeBasis(c));
    EXPECT_EQ(out.size(), 2u);
}

TEST(Optimizer, PreservesSemanticsOnRandomCircuits)
{
    Rng rng(321);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c = test::randomCircuit(4, 60, rng);
        // Salt with structures the optimizer acts on.
        c.h(0).h(0).rz(1, 0.7).rz(1, -0.2).i(2).cx(2, 3).cx(2, 3);
        const Circuit out = optimize(c);
        EXPECT_LE(out.size(), c.size());
        EXPECT_LT(test::distributionDistance(
                      test::logicalDistribution(c),
                      test::logicalDistribution(out)),
                  1e-9);
    }
}

TEST(Optimizer, IdempotentOnOptimizedOutput)
{
    Rng rng(322);
    const Circuit c = test::randomCircuit(4, 80, rng);
    const Circuit once = optimize(c);
    const Circuit twice = optimize(once);
    EXPECT_EQ(once, twice);
}

} // namespace
} // namespace vaq::circuit

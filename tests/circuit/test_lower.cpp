#include "circuit/lower.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "test_support.hpp"

namespace vaq::circuit
{
namespace
{

/** True when the circuit holds only {U3, CX, MEASURE, BARRIER}. */
bool
onlyNativeGates(const Circuit &circuit)
{
    for (const Gate &g : circuit.gates()) {
        if (g.kind != GateKind::U3 && g.kind != GateKind::CX &&
            g.kind != GateKind::MEASURE && g.kind != GateKind::BARRIER)
            return false;
    }
    return true;
}

TEST(Lower, OutputIsNativeBasis)
{
    Rng rng(41);
    const Circuit c = test::randomCircuit(4, 80, rng);
    const Circuit lowered = toNativeBasis(c);
    EXPECT_TRUE(onlyNativeGates(lowered));
    EXPECT_FALSE(onlyNativeGates(c)); // random circuits carry H/T/CX
}

TEST(Lower, PreservesSemanticsOnRandomCircuits)
{
    Rng rng(42);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c = test::randomCircuit(4, 60, rng);
        c.cz(0, 1).swap(2, 3).s(0).sdg(1).y(2).z(3)
            .rx(0, 0.3).ry(1, -0.4).rz(2, 1.2).i(3);
        const Circuit lowered = toNativeBasis(c);
        EXPECT_LT(test::distributionDistance(
                      test::logicalDistribution(c),
                      test::logicalDistribution(lowered)),
                  1e-9)
            << "trial " << trial;
    }
}

TEST(Lower, StatsCountRewrites)
{
    Circuit c(3);
    c.h(0).t(1).cz(0, 1).swap(1, 2).x(2).measureAll();
    LowerStats stats;
    const Circuit lowered = toNativeBasis(c, &stats);
    EXPECT_EQ(stats.loweredOneQubit, 3u); // h, t, x
    EXPECT_EQ(stats.loweredCz, 1u);
    EXPECT_EQ(stats.loweredSwaps, 1u);
    EXPECT_TRUE(onlyNativeGates(lowered));
    EXPECT_EQ(lowered.measureCount(), 3u);
}

TEST(Lower, IdentityGatesDropped)
{
    Circuit c(1);
    c.i(0).i(0).h(0);
    const Circuit lowered = toNativeBasis(c);
    EXPECT_EQ(lowered.size(), 1u);
}

TEST(Lower, MeasuresBarriersAndCxPassThrough)
{
    Circuit c(2);
    c.cx(0, 1).barrier().measure(0);
    const Circuit lowered = toNativeBasis(c);
    EXPECT_EQ(lowered, c);
}

TEST(Lower, IdempotentOnNativeCircuits)
{
    Rng rng(43);
    Circuit c = test::randomCircuit(3, 30, rng);
    const Circuit once = toNativeBasis(c);
    const Circuit twice = toNativeBasis(once);
    EXPECT_EQ(once, twice);
}

TEST(Lower, GateCountBounds)
{
    // Each SWAP costs 3 CX, each CZ costs CX + 2 U3; nothing else
    // grows.
    Circuit c(3);
    c.swap(0, 1).cz(1, 2);
    const Circuit lowered = toNativeBasis(c);
    EXPECT_EQ(lowered.twoQubitCount(), 4u); // 3 + 1
    EXPECT_EQ(lowered.size(), 6u);          // 4 CX + 2 U3
}

} // namespace
} // namespace vaq::circuit

#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include "circuit/lower.hpp"
#include "common/error.hpp"

namespace vaq::circuit
{
namespace
{

TEST(Circuit, ConstructionValidation)
{
    EXPECT_THROW(Circuit(0), VaqError);
    EXPECT_THROW(Circuit(-3), VaqError);
    EXPECT_EQ(Circuit(5).numQubits(), 5);
}

TEST(Circuit, BuilderChainsAndRecords)
{
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    EXPECT_EQ(c.size(), 6u);
    EXPECT_EQ(c.gates()[0].kind, GateKind::H);
    EXPECT_EQ(c.gates()[1].kind, GateKind::CX);
    EXPECT_EQ(c.gates()[5].kind, GateKind::MEASURE);
}

TEST(Circuit, OperandBoundsChecked)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), VaqError);
    EXPECT_THROW(c.cx(0, 2), VaqError);
    EXPECT_THROW(c.measure(-1), VaqError);
}

TEST(Circuit, InstructionCountExcludesBarriers)
{
    Circuit c(2);
    c.h(0).barrier().cx(0, 1).barrier().measureAll();
    EXPECT_EQ(c.size(), 6u);
    EXPECT_EQ(c.instructionCount(), 4u);
}

TEST(Circuit, GateKindCounts)
{
    Circuit c(4);
    c.h(0).cx(0, 1).swap(1, 2).cz(2, 3).swap(0, 3).measure(0)
        .measure(1);
    EXPECT_EQ(c.twoQubitCount(), 4u);
    EXPECT_EQ(c.swapCount(), 2u);
    EXPECT_EQ(c.measureCount(), 2u);
}

TEST(Circuit, DepthOfSerialAndParallel)
{
    Circuit serial(2);
    serial.h(0).h(0).h(0);
    EXPECT_EQ(serial.depth(), 3u);

    Circuit parallel(3);
    parallel.h(0).h(1).h(2);
    EXPECT_EQ(parallel.depth(), 1u);
}

TEST(Circuit, ActiveQubits)
{
    Circuit c(6);
    c.h(1).cx(3, 4);
    const auto active = c.activeQubits();
    EXPECT_EQ(active, (std::vector<Qubit>{1, 3, 4}));
}

TEST(Circuit, AppendCircuit)
{
    Circuit a(2);
    a.h(0);
    Circuit b(2);
    b.cx(0, 1);
    a.append(b);
    EXPECT_EQ(a.size(), 2u);

    Circuit narrow(1);
    Circuit wide(3);
    EXPECT_THROW(narrow.append(wide), VaqError);
}

TEST(Circuit, RemappedPermutesOperands)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measure(1);
    const Circuit r = c.remapped({3, 1}, 4);
    EXPECT_EQ(r.numQubits(), 4);
    EXPECT_EQ(r.gates()[0].q0, 3);
    EXPECT_EQ(r.gates()[1].q0, 3);
    EXPECT_EQ(r.gates()[1].q1, 1);
    EXPECT_EQ(r.gates()[2].q0, 1);
}

TEST(Circuit, RemappedValidatesPermutation)
{
    Circuit c(2);
    c.cx(0, 1);
    EXPECT_THROW(c.remapped({0, 0}, 2), VaqError);  // not injective
    EXPECT_THROW(c.remapped({0, 5}, 2), VaqError);  // out of range
    EXPECT_THROW(c.remapped({0}, 2), VaqError);     // too short
    EXPECT_THROW(c.remapped({0, 1}, 1), VaqError);  // narrower
}

TEST(Circuit, SwapLoweringUsesThreeCnots)
{
    Circuit c(2);
    c.swap(0, 1);
    const Circuit lowered = toNativeBasis(c);
    ASSERT_EQ(lowered.size(), 3u);
    for (const Gate &g : lowered.gates())
        EXPECT_EQ(g.kind, GateKind::CX);
    EXPECT_EQ(lowered.gates()[0].q0, 0);
    EXPECT_EQ(lowered.gates()[1].q0, 1);
    EXPECT_EQ(lowered.gates()[2].q0, 0);
}

TEST(Circuit, SwapLoweringLeavesOthersAlone)
{
    Circuit c(3);
    c.cx(0, 2).swap(0, 1).cx(1, 2).measure(2);
    const Circuit lowered = toNativeBasis(c);
    EXPECT_EQ(lowered.size(), 6u);
    EXPECT_EQ(lowered.gates()[0], c.gates()[0]);
    EXPECT_EQ(lowered.swapCount(), 0u);
    EXPECT_EQ(lowered.measureCount(), 1u);
}

TEST(Circuit, MeasureAllTouchesEveryQubit)
{
    Circuit c(4);
    c.measureAll();
    EXPECT_EQ(c.measureCount(), 4u);
}

TEST(Circuit, EqualityIsStructural)
{
    Circuit a(2), b(2);
    a.h(0);
    b.h(0);
    EXPECT_EQ(a, b);
    b.h(1);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace vaq::circuit

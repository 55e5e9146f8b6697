#include "circuit/gate.hpp"

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "common/error.hpp"

namespace vaq::circuit
{
namespace
{

// Kind and both int16_t operands share 8 bytes ahead of the angles.
static_assert(sizeof(Gate) == 32);

TEST(Gate, OneQubitFactoryValidates)
{
    const Gate g = Gate::oneQubit(GateKind::H, 3);
    EXPECT_EQ(g.kind, GateKind::H);
    EXPECT_EQ(g.q0, 3);
    EXPECT_EQ(g.q1, kNoQubit);
    EXPECT_THROW(Gate::oneQubit(GateKind::H, -1), VaqError);
    EXPECT_THROW(Gate::oneQubit(GateKind::CX, 0),
                 VaqInternalError);
}

TEST(Gate, TwoQubitFactoryValidates)
{
    const Gate g = Gate::twoQubit(GateKind::CX, 1, 2);
    EXPECT_EQ(g.q0, 1);
    EXPECT_EQ(g.q1, 2);
    EXPECT_THROW(Gate::twoQubit(GateKind::CX, 1, 1), VaqError);
    EXPECT_THROW(Gate::twoQubit(GateKind::CX, -1, 2), VaqError);
    EXPECT_THROW(Gate::twoQubit(GateKind::H, 0, 1),
                 VaqInternalError);
}

TEST(Gate, MeasureAndBarrier)
{
    const Gate m = Gate::measure(4);
    EXPECT_EQ(m.kind, GateKind::MEASURE);
    EXPECT_EQ(m.q0, 4);
    EXPECT_FALSE(m.isUnitary());

    const Gate b = Gate::barrier();
    EXPECT_EQ(b.kind, GateKind::BARRIER);
    EXPECT_FALSE(b.isUnitary());
    EXPECT_THROW(Gate::measure(-2), VaqError);
}

TEST(Gate, OperandsStopAtTheWidthLimit)
{
    constexpr Qubit past = kMaxQubits + 1;
    EXPECT_EQ(Gate::oneQubit(GateKind::X, kMaxQubits).q0, kMaxQubits);
    EXPECT_EQ(Gate::twoQubit(GateKind::CX, 0, kMaxQubits).q1,
              kMaxQubits);
    EXPECT_EQ(Circuit(kMaxQubits).numQubits(), kMaxQubits);

    EXPECT_THROW(Circuit{past}, VaqError);
    EXPECT_THROW(Gate::oneQubit(GateKind::X, past), VaqError);
    EXPECT_THROW(Gate::u3(past, 0.1, 0.2, 0.3), VaqError);
    EXPECT_THROW(Gate::twoQubit(GateKind::CX, past, 0), VaqError);
    EXPECT_THROW(Gate::twoQubit(GateKind::CX, 0, past), VaqError);
    EXPECT_THROW(Gate::measure(past), VaqError);
}

TEST(Gate, Classification)
{
    EXPECT_TRUE(Gate::twoQubit(GateKind::SWAP, 0, 1).isTwoQubit());
    EXPECT_TRUE(Gate::twoQubit(GateKind::CZ, 0, 1).isTwoQubit());
    EXPECT_FALSE(Gate::oneQubit(GateKind::X, 0).isTwoQubit());
    EXPECT_TRUE(Gate::oneQubit(GateKind::RZ, 0, 1.5)
                    .isParameterized());
    EXPECT_FALSE(Gate::oneQubit(GateKind::H, 0).isParameterized());
    EXPECT_TRUE(Gate::oneQubit(GateKind::T, 0).isUnitary());
}

TEST(Gate, Touches)
{
    const Gate g = Gate::twoQubit(GateKind::CX, 2, 5);
    EXPECT_TRUE(g.touches(2));
    EXPECT_TRUE(g.touches(5));
    EXPECT_FALSE(g.touches(3));
}

TEST(Gate, NamesRoundTrip)
{
    for (GateKind kind :
         {GateKind::I, GateKind::X, GateKind::Y, GateKind::Z,
          GateKind::H, GateKind::S, GateKind::Sdg, GateKind::T,
          GateKind::Tdg, GateKind::RX, GateKind::RY, GateKind::RZ,
          GateKind::CX, GateKind::CZ, GateKind::SWAP,
          GateKind::MEASURE, GateKind::BARRIER}) {
        EXPECT_EQ(gateKindFromName(gateName(kind)), kind);
    }
}

TEST(Gate, U1AliasesRz)
{
    EXPECT_EQ(gateKindFromName("u1"), GateKind::RZ);
}

TEST(Gate, UnknownNameThrows)
{
    EXPECT_THROW(gateKindFromName("ccx"), VaqError);
    EXPECT_THROW(gateKindFromName(""), VaqError);
}

TEST(Gate, Arity)
{
    EXPECT_EQ(gateArity(GateKind::CX), 2);
    EXPECT_EQ(gateArity(GateKind::SWAP), 2);
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::MEASURE), 1);
    EXPECT_EQ(gateArity(GateKind::BARRIER), 0);
}

TEST(Gate, Equality)
{
    EXPECT_EQ(Gate::oneQubit(GateKind::H, 1),
              Gate::oneQubit(GateKind::H, 1));
    EXPECT_NE(Gate::oneQubit(GateKind::H, 1),
              Gate::oneQubit(GateKind::H, 2));
    EXPECT_NE(Gate::oneQubit(GateKind::RZ, 1, 0.5),
              Gate::oneQubit(GateKind::RZ, 1, 0.6));
}

} // namespace
} // namespace vaq::circuit

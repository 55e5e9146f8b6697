#include "analysis/dataflow.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "circuit/circuit.hpp"
#include "circuit/layering.hpp"

namespace vaq::analysis
{
namespace
{

using circuit::Circuit;

// The analysis borrows its circuit, so it refuses a temporary.
static_assert(std::is_constructible_v<DataflowAnalysis, const Circuit &>);
static_assert(!std::is_constructible_v<DataflowAnalysis, Circuit>);
static_assert(!std::is_constructible_v<DataflowAnalysis, Circuit,
                                       calibration::GateDurations>);

TEST(Dataflow, ChainsRecordTouchesAndMeasures)
{
    Circuit c(3);
    c.h(0).cx(0, 1).measure(1).x(2);
    const DataflowAnalysis df(c);

    const QubitChain &q0 = df.chain(0);
    EXPECT_EQ(q0.firstTouch, 0);
    EXPECT_EQ(q0.lastTouch, 1);
    EXPECT_EQ(q0.firstMeasure, -1);
    EXPECT_EQ(q0.touches, (std::vector<std::size_t>{0, 1}));
    EXPECT_TRUE(q0.measures.empty());

    const QubitChain &q1 = df.chain(1);
    EXPECT_EQ(q1.firstTouch, 1);
    EXPECT_EQ(q1.firstMeasure, 2);
    EXPECT_EQ(q1.measures, (std::vector<std::size_t>{2}));

    EXPECT_TRUE(df.chain(2).touched());
    EXPECT_EQ(df.chain(2).firstMeasure, -1);
}

TEST(Dataflow, BarriersTouchNoChain)
{
    Circuit c(2);
    c.h(0).barrier().measure(0);
    const DataflowAnalysis df(c);
    EXPECT_EQ(df.chain(0).touches,
              (std::vector<std::size_t>{0, 2}));
    EXPECT_FALSE(df.chain(1).touched());
}

TEST(Dataflow, LivenessPropagatesBackwards)
{
    Circuit c(3);
    c.h(0).cx(0, 1).x(2).measure(1);
    const DataflowAnalysis df(c);
    const std::vector<bool> &live = df.liveGate();
    EXPECT_TRUE(live[0]); // h feeds cx feeds measure
    EXPECT_TRUE(live[1]);
    EXPECT_FALSE(live[2]); // x on q2 reaches nothing
    EXPECT_TRUE(live[3]); // the measurement itself
}

TEST(Dataflow, SwapRoutesLivenessExactly)
{
    // x writes wire 0; the swap moves that state to wire 1, which
    // is measured. The x must be live, and a gate left on wire 0
    // after the swap must be dead.
    Circuit c(2);
    c.x(0).swap(0, 1).z(0).measure(1);
    const DataflowAnalysis df(c);
    EXPECT_TRUE(df.liveGate()[0]);  // x
    EXPECT_TRUE(df.liveGate()[1]);  // swap
    EXPECT_FALSE(df.liveGate()[2]); // z on the dead wire
}

TEST(Dataflow, EntanglingGateMakesBothWiresLive)
{
    Circuit c(2);
    c.h(0).h(1).cx(0, 1).measure(1);
    const DataflowAnalysis df(c);
    EXPECT_TRUE(df.liveGate()[0]);
    EXPECT_TRUE(df.liveGate()[1]);
}

TEST(Dataflow, SwapFactDetectsUntouchedExchange)
{
    Circuit c(3);
    c.swap(0, 1).h(2);
    const DataflowAnalysis df(c);
    ASSERT_EQ(df.swapFacts().size(), 1u);
    EXPECT_TRUE(df.swapFacts()[0].exchangesUntouchedStates);
    EXPECT_TRUE(df.swapFacts()[0].noOp());
}

TEST(Dataflow, SwapFactDetectsCancellation)
{
    Circuit c(2);
    c.h(0).h(1).swap(0, 1).swap(1, 0);
    const DataflowAnalysis df(c);
    ASSERT_EQ(df.swapFacts().size(), 2u);
    EXPECT_FALSE(df.swapFacts()[0].noOp());
    EXPECT_TRUE(df.swapFacts()[1].cancelsPrevious);
}

TEST(Dataflow, InterveningGateBlocksCancellation)
{
    Circuit c(2);
    c.h(0).h(1).swap(0, 1).x(0).swap(0, 1);
    const DataflowAnalysis df(c);
    ASSERT_EQ(df.swapFacts().size(), 2u);
    EXPECT_FALSE(df.swapFacts()[1].cancelsPrevious);
}

TEST(Dataflow, MeaningfulSwapIsNotANoOp)
{
    Circuit c(2);
    c.h(0).swap(0, 1).measure(1);
    const DataflowAnalysis df(c);
    ASSERT_EQ(df.swapFacts().size(), 1u);
    EXPECT_FALSE(df.swapFacts()[0].noOp());
}

TEST(Dataflow, WireStateTracksPermutation)
{
    Circuit c(3);
    c.h(0).swap(0, 1).swap(1, 2);
    const DataflowAnalysis df(c);
    // State 0 moved 0 -> 1 -> 2; state 1 moved to wire 0.
    EXPECT_EQ(df.wireState()[0], 1);
    EXPECT_EQ(df.wireState()[1], 2);
    EXPECT_EQ(df.wireState()[2], 0);
}

TEST(Dataflow, AsapScheduleUsesGateDurations)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measure(1);
    const DataflowAnalysis df(c); // defaults: 60 / 200 / 300 ns
    EXPECT_DOUBLE_EQ(df.gateStartNs(0), 0.0);
    EXPECT_DOUBLE_EQ(df.gateStartNs(1), 60.0);
    EXPECT_DOUBLE_EQ(df.gateEndNs(1), 260.0);
    EXPECT_DOUBLE_EQ(df.gateStartNs(2), 260.0);
    EXPECT_DOUBLE_EQ(df.scheduleNs(), 560.0);
}

TEST(Dataflow, IdleWindowCapturesTheGap)
{
    // q1 acts at t=0 (h), then waits for q0's long chain before the
    // cx at t=180: a 120 ns idle window on q1.
    Circuit c(2);
    c.h(1).h(0).h(0).h(0).cx(0, 1);
    const DataflowAnalysis df(c);
    ASSERT_EQ(df.idleWindows().size(), 1u);
    const IdleWindow &w = df.idleWindows()[0];
    EXPECT_EQ(w.qubit, 1);
    EXPECT_EQ(w.fromGate, 0u);
    EXPECT_EQ(w.toGate, 4u);
    EXPECT_DOUBLE_EQ(w.nanoseconds, 120.0);
}

TEST(Dataflow, NoIdleWindowBeforeFirstGate)
{
    Circuit c(2);
    c.h(0).h(0).cx(0, 1);
    const DataflowAnalysis df(c);
    // q1's first gate is the cx; waiting to start is not idling.
    EXPECT_TRUE(df.idleWindows().empty());
}

TEST(Dataflow, SwapCountsAsThreeTwoQubitGates)
{
    Circuit c(2);
    c.swap(0, 1);
    const DataflowAnalysis df(c);
    EXPECT_DOUBLE_EQ(df.gateDurationNs(0), 600.0);
}

TEST(Dataflow, CustomDurationsFeedTheSchedule)
{
    calibration::GateDurations durations;
    durations.oneQubitNs = 10.0;
    durations.measureNs = 100.0;
    Circuit c(1);
    c.h(0).measure(0);
    const DataflowAnalysis df(c, durations);
    EXPECT_DOUBLE_EQ(df.scheduleNs(), 110.0);
}

TEST(Dataflow, ActivityCountsTwoQubitEndpoints)
{
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2).cx(0, 1).measureAll();
    const std::vector<double> activity = activityByQubit(c);
    EXPECT_DOUBLE_EQ(activity[0], 2.0);
    EXPECT_DOUBLE_EQ(activity[1], 3.0);
    EXPECT_DOUBLE_EQ(activity[2], 1.0);
}

TEST(Dataflow, ActivityWindowLimitsLayers)
{
    Circuit c(3);
    c.cx(0, 1).cx(1, 2); // layer 0, layer 1
    const std::vector<double> first = activityByQubit(c, 1);
    EXPECT_DOUBLE_EQ(first[0], 1.0);
    EXPECT_DOUBLE_EQ(first[1], 1.0);
    EXPECT_DOUBLE_EQ(first[2], 0.0);
}

} // namespace
} // namespace vaq::analysis

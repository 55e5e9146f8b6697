#include "calibration/schedule.hpp"

#include <algorithm>

#include <gtest/gtest.h>

namespace vaq::calibration
{
namespace
{

using circuit::Circuit;

class ScheduleTest : public ::testing::Test
{
  protected:
    GateDurations durations;
};

TEST_F(ScheduleTest, EmptyCircuit)
{
    const Schedule s = scheduleAsap(Circuit(5), durations);
    EXPECT_TRUE(s.startNs.empty());
    EXPECT_DOUBLE_EQ(s.durationNs, 0.0);
}

TEST_F(ScheduleTest, SerialGatesStack)
{
    Circuit c(5);
    c.h(0).h(0).h(0);
    const Schedule s = scheduleAsap(c, durations);
    const double t1q = durations.oneQubitNs;
    ASSERT_EQ(s.startNs.size(), 3u);
    EXPECT_DOUBLE_EQ(s.startNs[0], 0.0);
    EXPECT_DOUBLE_EQ(s.startNs[1], t1q);
    EXPECT_DOUBLE_EQ(s.startNs[2], 2.0 * t1q);
    EXPECT_DOUBLE_EQ(s.durationNs, 3.0 * t1q);
}

TEST_F(ScheduleTest, ParallelGatesOverlap)
{
    Circuit c(5);
    c.h(0).h(1).h(2);
    const Schedule s = scheduleAsap(c, durations);
    EXPECT_DOUBLE_EQ(s.durationNs, durations.oneQubitNs);
}

TEST_F(ScheduleTest, TwoQubitGateBlocksBothOperands)
{
    Circuit c(5);
    c.cx(0, 1).h(1);
    const Schedule s = scheduleAsap(c, durations);
    EXPECT_DOUBLE_EQ(s.startNs[1], durations.twoQubitNs);
}

TEST_F(ScheduleTest, BarrierSynchronizesAll)
{
    Circuit c(5);
    c.cx(0, 1).barrier().h(4);
    const Schedule s = scheduleAsap(c, durations);
    // h(4) cannot start before the barrier time = CX end.
    EXPECT_DOUBLE_EQ(s.startNs[2], durations.twoQubitNs);
}

TEST_F(ScheduleTest, SwapTakesThreeCnotDurations)
{
    Circuit c(5);
    c.swap(0, 1);
    const Schedule s = scheduleAsap(c, durations);
    EXPECT_DOUBLE_EQ(s.durationNs, 3.0 * durations.twoQubitNs);
}

TEST_F(ScheduleTest, IdleTimeComputed)
{
    // Qubit 1 does the first CX then waits while 2-3 run twice,
    // then works again.
    Circuit c(5);
    c.cx(1, 2).cx(2, 3).cx(2, 3).cx(1, 2);
    const Schedule s = scheduleAsap(c, durations);
    const double t2q = durations.twoQubitNs;
    EXPECT_DOUBLE_EQ(s.idleNs(c, durations, 1), 2.0 * t2q);
    // Qubit 2 never idles.
    EXPECT_DOUBLE_EQ(s.idleNs(c, durations, 2), 0.0);
    // Qubit 4 never works.
    EXPECT_DOUBLE_EQ(s.idleNs(c, durations, 4), 0.0);
}

TEST_F(ScheduleTest, MakespanIsMaxEnd)
{
    Circuit c(5);
    c.cx(0, 1).cx(2, 3).h(4).h(4);
    const Schedule s = scheduleAsap(c, durations);
    double maxEnd = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
        maxEnd = std::max(maxEnd, s.startNs[i] +
                                      gateDurationNs(c.gates()[i],
                                                     durations));
    }
    EXPECT_DOUBLE_EQ(s.durationNs, maxEnd);
}

TEST_F(ScheduleTest, OpsKeepProgramOrderIndices)
{
    // One start per gate, indexed like Circuit::gates().
    Circuit c(5);
    c.h(0).cx(0, 1).measure(1);
    const Schedule s = scheduleAsap(c, durations);
    ASSERT_EQ(s.startNs.size(), 3u);
    EXPECT_DOUBLE_EQ(s.startNs[0], 0.0);
    EXPECT_DOUBLE_EQ(s.startNs[1], durations.oneQubitNs);
    EXPECT_DOUBLE_EQ(s.startNs[2],
                     durations.oneQubitNs + durations.twoQubitNs);
}

} // namespace
} // namespace vaq::calibration

#include "sim/noise_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::sim
{
namespace
{

// The model borrows its graph and snapshot, so it refuses
// temporaries of either.
using topology::CouplingGraph;
using calibration::Snapshot;
static_assert(std::is_constructible_v<NoiseModel, const CouplingGraph &,
                                      const Snapshot &>);
static_assert(
    !std::is_constructible_v<NoiseModel, CouplingGraph, const Snapshot &>);
static_assert(
    !std::is_constructible_v<NoiseModel, const CouplingGraph &, Snapshot>);
static_assert(
    !std::is_constructible_v<NoiseModel, CouplingGraph, Snapshot>);

using circuit::Gate;
using circuit::GateKind;

class NoiseModelTest : public ::testing::Test
{
  protected:
    NoiseModelTest()
        : graph(topology::ibmQ5Tenerife()),
          snap(test::uniformSnapshot(graph, 0.04, 0.003, 0.03))
    {}

    topology::CouplingGraph graph;
    calibration::Snapshot snap;
};

TEST_F(NoiseModelTest, OpErrorsComeFromCalibration)
{
    const NoiseModel model(graph, snap);
    EXPECT_DOUBLE_EQ(
        model.opErrorProb(Gate::twoQubit(GateKind::CX, 0, 1)),
        0.04);
    EXPECT_DOUBLE_EQ(
        model.opErrorProb(Gate::oneQubit(GateKind::H, 2)), 0.003);
    EXPECT_DOUBLE_EQ(model.opErrorProb(Gate::measure(3)), 0.03);
    EXPECT_DOUBLE_EQ(model.opErrorProb(Gate::barrier()), 0.0);
}

TEST_F(NoiseModelTest, SwapChargesThreeCnots)
{
    const NoiseModel model(graph, snap);
    EXPECT_NEAR(
        model.opErrorProb(Gate::twoQubit(GateKind::SWAP, 0, 1)),
        1.0 - std::pow(0.96, 3), 1e-12);
}

TEST_F(NoiseModelTest, UnroutedGateRejected)
{
    const NoiseModel model(graph, snap);
    // 0-4 is not a Tenerife link.
    EXPECT_THROW(
        model.opErrorProb(Gate::twoQubit(GateKind::CX, 0, 4)),
        VaqError);
}

TEST_F(NoiseModelTest, DurationsByKind)
{
    const NoiseModel model(graph, snap);
    const auto &d = snap.durations;
    EXPECT_DOUBLE_EQ(
        model.opDurationNs(Gate::oneQubit(GateKind::X, 0)),
        d.oneQubitNs);
    EXPECT_DOUBLE_EQ(
        model.opDurationNs(Gate::twoQubit(GateKind::CX, 0, 1)),
        d.twoQubitNs);
    EXPECT_DOUBLE_EQ(
        model.opDurationNs(Gate::twoQubit(GateKind::SWAP, 0, 1)),
        3.0 * d.twoQubitNs);
    EXPECT_DOUBLE_EQ(model.opDurationNs(Gate::measure(0)),
                     d.measureNs);
    EXPECT_DOUBLE_EQ(model.opDurationNs(Gate::barrier()), 0.0);
}

TEST_F(NoiseModelTest, CoherenceScalesWithT1)
{
    const NoiseModel model(graph, snap);
    const Gate cx = Gate::twoQubit(GateKind::CX, 0, 1);
    const double expected =
        1.0 - std::exp(-200.0 / (80.0 * 1000.0));
    // Two operands decohere independently.
    EXPECT_NEAR(model.coherenceErrorProb(cx),
                1.0 - std::pow(1.0 - expected, 2), 1e-12);
}

TEST_F(NoiseModelTest, CoherenceModeNoneDisablesIt)
{
    const NoiseModel model(graph, snap, CoherenceMode::None);
    EXPECT_DOUBLE_EQ(model.coherenceErrorProb(
                         Gate::twoQubit(GateKind::CX, 0, 1)),
                     0.0);
    EXPECT_NEAR(
        model.totalErrorProb(Gate::twoQubit(GateKind::CX, 0, 1)),
        0.04, 1e-12);
}

TEST_F(NoiseModelTest, GateErrorsDominateCoherence)
{
    // The paper's Section 4.4 observation: with realistic
    // durations, operational errors dwarf coherence errors
    // (~16x for bv-20); check the per-op ratio is >= 5x.
    const NoiseModel model(graph, snap);
    const Gate cx = Gate::twoQubit(GateKind::CX, 0, 1);
    EXPECT_GT(model.opErrorProb(cx),
              5.0 * model.coherenceErrorProb(cx));
}

TEST_F(NoiseModelTest, TotalCombinesIndependently)
{
    const NoiseModel model(graph, snap);
    const Gate cx = Gate::twoQubit(GateKind::CX, 0, 1);
    const double op = model.opErrorProb(cx);
    const double coh = model.coherenceErrorProb(cx);
    EXPECT_NEAR(model.totalErrorProb(cx),
                1.0 - (1.0 - op) * (1.0 - coh), 1e-12);
}

TEST_F(NoiseModelTest, IdleErrorOnlyInIdleMode)
{
    const NoiseModel perOp(graph, snap, CoherenceMode::PerOp);
    EXPECT_DOUBLE_EQ(perOp.idleErrorProb(0, 1000.0), 0.0);

    const NoiseModel idle(graph, snap, CoherenceMode::Idle);
    EXPECT_GT(idle.idleErrorProb(0, 1000.0), 0.0);
    EXPECT_DOUBLE_EQ(idle.idleErrorProb(0, 0.0), 0.0);
}

TEST_F(NoiseModelTest, LongerIdleMeansMoreError)
{
    const NoiseModel idle(graph, snap, CoherenceMode::Idle);
    EXPECT_GT(idle.idleErrorProb(0, 2000.0),
              idle.idleErrorProb(0, 500.0));
}

TEST(NoiseModel, ShapeMismatchRejected)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const auto line = topology::linear(5);
    const auto snap = test::uniformSnapshot(line);
    EXPECT_THROW(NoiseModel(q5, snap), VaqError);
}

TEST(NoiseModel, WeakQubitHasWorseCoherence)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = test::uniformSnapshot(q5);
    snap.qubit(1).t1Us = 10.0; // much shorter T1
    const NoiseModel model(q5, snap);
    EXPECT_GT(model.coherenceErrorProb(
                  Gate::oneQubit(GateKind::H, 1)),
              model.coherenceErrorProb(
                  Gate::oneQubit(GateKind::H, 0)));
}

} // namespace
} // namespace vaq::sim

#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::core
{
namespace
{

// Both models borrow the graph (ReliabilityCost only reads the
// snapshot), so they refuse a temporary graph.
using topology::CouplingGraph;
static_assert(
    std::is_constructible_v<SwapCountCost, const CouplingGraph &>);
static_assert(!std::is_constructible_v<SwapCountCost, CouplingGraph>);
static_assert(std::is_constructible_v<ReliabilityCost,
                                      const CouplingGraph &,
                                      calibration::Snapshot>);
static_assert(!std::is_constructible_v<ReliabilityCost, CouplingGraph,
                                       const calibration::Snapshot &>);

TEST(SwapCountCost, UniformCosts)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const SwapCountCost cost(q5);
    EXPECT_DOUBLE_EQ(cost.swapCost(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(cost.cnotCost(2, 3), 1.0);
    EXPECT_FALSE(cost.relocationCanHelp());
    EXPECT_EQ(cost.name(), "swap-count");
}

TEST(SwapCountCost, RejectsUncoupledPairs)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const SwapCountCost cost(q5);
    EXPECT_THROW(cost.swapCost(0, 4), VaqError);
    EXPECT_THROW(cost.cnotCost(0, 3), VaqError);
}

TEST(ReliabilityCost, MinusLogSemantics)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = test::uniformSnapshot(q5);
    snap.setLinkError(q5.linkIndex(0, 1), 0.1);
    const ReliabilityCost cost(q5, snap);
    EXPECT_NEAR(cost.cnotCost(0, 1), -std::log(0.9), 1e-12);
    EXPECT_NEAR(cost.swapCost(0, 1), -3.0 * std::log(0.9),
                1e-12);
    EXPECT_TRUE(cost.relocationCanHelp());
}

TEST(ReliabilityCost, WeakerLinkCostsMore)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = test::uniformSnapshot(q5);
    snap.setLinkError(q5.linkIndex(0, 1), 0.02);
    snap.setLinkError(q5.linkIndex(2, 3), 0.15);
    const ReliabilityCost cost(q5, snap);
    EXPECT_LT(cost.cnotCost(0, 1), cost.cnotCost(2, 3));
}

TEST(ReliabilityCost, ZeroErrorClampedFinite)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(q5, 0.0);
    const ReliabilityCost cost(q5, snap);
    EXPECT_GT(cost.cnotCost(0, 1), 0.0);
    EXPECT_TRUE(std::isfinite(cost.cnotCost(0, 1)));
}

TEST(ReliabilityCost, CertainFailureClampedFinite)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = test::uniformSnapshot(q5);
    snap.setLinkError(q5.linkIndex(0, 1), 1.0);
    const ReliabilityCost cost(q5, snap);
    EXPECT_TRUE(std::isfinite(cost.cnotCost(0, 1)));
}

TEST(ReliabilityCost, ShapeMismatchRejected)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const auto lineSnap =
        test::uniformSnapshot(topology::linear(5));
    EXPECT_THROW(ReliabilityCost(q5, lineSnap), VaqError);
}

TEST(CostModelFactory, BuildsRequestedKind)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(q5);
    EXPECT_EQ(makeCostModel(CostKind::SwapCount, q5, snap)->name(),
              "swap-count");
    EXPECT_EQ(
        makeCostModel(CostKind::Reliability, q5, snap)->name(),
        "reliability");
}

TEST(ReliabilityCost, SumOfCostsIsProductOfSuccesses)
{
    // The core VQM identity: minimizing summed -log success
    // maximizes the success product (paper Section 5.3).
    const auto line = topology::linear(4);
    auto snap = test::uniformSnapshot(line);
    snap.setLinkError(0, 0.03);
    snap.setLinkError(1, 0.05);
    snap.setLinkError(2, 0.08);
    const ReliabilityCost cost(line, snap);
    const double sum = cost.cnotCost(0, 1) + cost.cnotCost(1, 2) +
                       cost.cnotCost(2, 3);
    EXPECT_NEAR(std::exp(-sum), 0.97 * 0.95 * 0.92, 1e-12);
}

} // namespace
} // namespace vaq::core

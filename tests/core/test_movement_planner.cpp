#include "core/movement_planner.hpp"

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

// The planner borrows its graph and cost model, and a PlanCache its
// graph, so each refuses temporaries of what it borrows.
using topology::CouplingGraph;
static_assert(std::is_constructible_v<MovementPlanner,
                                      const CouplingGraph &,
                                      const SwapCountCost &>);
static_assert(!std::is_constructible_v<MovementPlanner, CouplingGraph,
                                       const SwapCountCost &>);
static_assert(!std::is_constructible_v<MovementPlanner,
                                       const CouplingGraph &,
                                       SwapCountCost, int>);
static_assert(std::is_constructible_v<PlanCache, const CouplingGraph &,
                                      calibration::Snapshot, CostKind,
                                      int>);
static_assert(!std::is_constructible_v<PlanCache, CouplingGraph,
                                       const calibration::Snapshot &,
                                       CostKind, int>);

TEST(MovementPlanner, AdjacentStaysPutUnderUniformCost)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const SwapCountCost cost(q5);
    const MovementPlanner planner(q5, cost);
    const MovementPlan plan = planner.plan(0, 1);
    EXPECT_TRUE(plan.swaps.empty());
    EXPECT_EQ(plan.gateA, 0);
    EXPECT_EQ(plan.gateB, 1);
    EXPECT_EQ(plan.extraHops, 0);
}

TEST(MovementPlanner, LineNeedsDistanceMinusOneSwaps)
{
    const auto line = topology::linear(5);
    const SwapCountCost cost(line);
    const MovementPlanner planner(line, cost);
    const MovementPlan plan = planner.plan(0, 4);
    EXPECT_EQ(plan.swaps.size(), 3u);
    EXPECT_EQ(plan.extraHops, 0);
}

TEST(MovementPlanner, SwapsFormContiguousWalk)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const MovementPlan plan = planner.plan(0, 19);
    ASSERT_FALSE(plan.swaps.empty());
    for (std::size_t i = 0; i < plan.swaps.size(); ++i) {
        EXPECT_TRUE(q20.coupled(plan.swaps[i].first,
                                plan.swaps[i].second));
        if (i > 0) {
            EXPECT_EQ(plan.swaps[i].first,
                      plan.swaps[i - 1].second);
        }
    }
}

TEST(MovementPlanner, StationaryEndpointNeverDisplaced)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const MovementPlan plan = planner.plan(0, 19);
    // The mover walks one end; neither intermediate swap may touch
    // the stationary endpoint.
    const int stationary =
        plan.gateA == 0 || plan.gateB == 0 ? 0 : 19;
    // Determine which endpoint stayed: the gate executes on
    // (gateA, gateB) and one of them must be an original operand.
    EXPECT_TRUE(plan.gateA == 0 || plan.gateA == 19 ||
                plan.gateB == 0 || plan.gateB == 19);
    for (const auto &[u, v] : plan.swaps) {
        EXPECT_NE(u, stationary);
        EXPECT_NE(v, stationary);
    }
}

TEST(MovementPlanner, ReliabilityPlannerAvoidsWeakLinks)
{
    // Ring of 6: route 0 -> 3 clockwise or counter-clockwise.
    // Make the clockwise side terrible.
    const auto ring6 = topology::ring(6);
    auto snap = test::uniformSnapshot(ring6, 0.02);
    snap.setLinkError(ring6.linkIndex(1, 2), 0.25);
    const ReliabilityCost cost(ring6, snap);
    const MovementPlanner planner(ring6, cost);
    const MovementPlan plan = planner.plan(0, 3);
    // Route must not swap across the weak 1-2 link.
    for (const auto &[u, v] : plan.swaps) {
        const bool isWeak = (u == 1 && v == 2) ||
                            (u == 2 && v == 1);
        EXPECT_FALSE(isWeak);
    }
}

TEST(MovementPlanner, ReliabilityRelocatesOffTerribleLink)
{
    // Adjacent pair on a terrible link; a strong alternative one
    // hop away must win under reliability costs.
    const auto ring4 = topology::ring(4);
    auto snap = test::uniformSnapshot(ring4, 0.01);
    snap.setLinkError(ring4.linkIndex(0, 1), 0.40);
    const ReliabilityCost cost(ring4, snap);
    const MovementPlanner planner(ring4, cost);
    const MovementPlan plan = planner.plan(0, 1);
    // Stay cost = -log(0.6) ~= 0.51; move over a 0.01 link
    // (3 * 0.01) + execute (0.01) ~= 0.04: relocation wins.
    EXPECT_FALSE(plan.swaps.empty());
}

TEST(MovementPlanner, MahZeroForbidsDetours)
{
    const auto ring6 = topology::ring(6);
    auto snap = test::uniformSnapshot(ring6, 0.02);
    snap.setLinkError(ring6.linkIndex(0, 1), 0.3);
    const ReliabilityCost cost(ring6, snap);
    // MAH = 0: adjacent pairs cannot relocate at all.
    const MovementPlanner planner(ring6, cost, 0);
    const MovementPlan plan = planner.plan(0, 1);
    EXPECT_TRUE(plan.swaps.empty());
}

TEST(MovementPlanner, MahLimitsExtraHops)
{
    const auto q20 = topology::ibmQ20Tokyo();
    Rng rng(3);
    const auto snap = test::randomSnapshot(q20, rng);
    const ReliabilityCost cost(q20, snap);
    for (int mah : {0, 1, 2, 4}) {
        const MovementPlanner planner(q20, cost, mah);
        const auto &hops = q20.hopDistances();
        for (int a = 0; a < q20.numQubits(); ++a) {
            for (int b = a + 1; b < q20.numQubits(); ++b) {
                const MovementPlan plan = planner.plan(a, b);
                EXPECT_LE(plan.extraHops, mah);
                const int minHops =
                    hops[static_cast<std::size_t>(a)]
                        [static_cast<std::size_t>(b)];
                EXPECT_EQ(static_cast<int>(plan.swaps.size()) + 1,
                          minHops + plan.extraHops);
            }
        }
    }
}

TEST(MovementPlanner, UnlimitedNeverWorseThanLimited)
{
    const auto q20 = topology::ibmQ20Tokyo();
    Rng rng(4);
    const auto snap = test::randomSnapshot(q20, rng);
    const ReliabilityCost cost(q20, snap);
    const MovementPlanner unlimited(q20, cost);
    const MovementPlanner limited(q20, cost, 2);
    for (int a = 0; a < q20.numQubits(); ++a) {
        for (int b = a + 1; b < q20.numQubits(); ++b) {
            EXPECT_LE(unlimited.plan(a, b).cost,
                      limited.plan(a, b).cost + 1e-12);
        }
    }
}

TEST(MovementPlanner, UniformCostMatchesHopOptimal)
{
    // With uniform costs the planner must use exactly
    // hop-distance - 1 swaps for every pair.
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const auto &hops = q20.hopDistances();
    for (int a = 0; a < q20.numQubits(); ++a) {
        for (int b = a + 1; b < q20.numQubits(); ++b) {
            const MovementPlan plan = planner.plan(a, b);
            EXPECT_EQ(
                static_cast<int>(plan.swaps.size()),
                hops[static_cast<std::size_t>(a)]
                    [static_cast<std::size_t>(b)] - 1);
        }
    }
}

TEST(MovementPlanner, GateEndsAdjacent)
{
    const auto q20 = topology::ibmQ20Tokyo();
    Rng rng(5);
    const auto snap = test::randomSnapshot(q20, rng);
    const ReliabilityCost cost(q20, snap);
    const MovementPlanner planner(q20, cost);
    for (int a = 0; a < q20.numQubits(); ++a) {
        for (int b = a + 1; b < q20.numQubits(); ++b) {
            const MovementPlan plan = planner.plan(a, b);
            EXPECT_TRUE(q20.coupled(plan.gateA, plan.gateB));
        }
    }
}

/**
 * Property sweep: planner invariants hold on every topology
 * family, for every qubit pair, under both cost models.
 */
class PlannerTopologySweep
    : public ::testing::TestWithParam<std::string>
{
  protected:
    static topology::CouplingGraph
    machine(const std::string &name)
    {
        if (name == "q5")
            return topology::ibmQ5Tenerife();
        if (name == "q20")
            return topology::ibmQ20Tokyo();
        if (name == "falcon27")
            return topology::ibmFalcon27();
        if (name == "line9")
            return topology::linear(9);
        if (name == "ring8")
            return topology::ring(8);
        return topology::grid(3, 4);
    }
};

TEST_P(PlannerTopologySweep, PlansAreValidWalks)
{
    const topology::CouplingGraph graph = machine(GetParam());
    Rng rng(2024);
    const auto snap = test::randomSnapshot(graph, rng);
    const SwapCountCost uniform(graph);
    const ReliabilityCost reliable(graph, snap);

    for (const CostModel *cost :
         {static_cast<const CostModel *>(&uniform),
          static_cast<const CostModel *>(&reliable)}) {
        const MovementPlanner planner(graph, *cost);
        for (int a = 0; a < graph.numQubits(); ++a) {
            for (int b = a + 1; b < graph.numQubits(); ++b) {
                const MovementPlan plan = planner.plan(a, b);
                // The gate ends on a real link.
                EXPECT_TRUE(graph.coupled(plan.gateA,
                                          plan.gateB));
                // Swaps are coupled and form a contiguous walk.
                for (std::size_t i = 0; i < plan.swaps.size();
                     ++i) {
                    EXPECT_TRUE(graph.coupled(
                        plan.swaps[i].first,
                        plan.swaps[i].second));
                    if (i > 0) {
                        EXPECT_EQ(plan.swaps[i].first,
                                  plan.swaps[i - 1].second);
                    }
                }
                // Cost is positive and finite.
                EXPECT_GT(plan.cost, 0.0);
                EXPECT_TRUE(std::isfinite(plan.cost));
            }
        }
    }
}

TEST_P(PlannerTopologySweep, UniformCostIsHopOptimal)
{
    const topology::CouplingGraph graph = machine(GetParam());
    const SwapCountCost cost(graph);
    const MovementPlanner planner(graph, cost);
    const auto &hops = graph.hopDistances();
    for (int a = 0; a < graph.numQubits(); ++a) {
        for (int b = a + 1; b < graph.numQubits(); ++b) {
            EXPECT_EQ(static_cast<int>(
                          planner.plan(a, b).swaps.size()),
                      hops[static_cast<std::size_t>(a)]
                          [static_cast<std::size_t>(b)] - 1);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Topologies, PlannerTopologySweep,
                         ::testing::Values("q5", "q20",
                                           "falcon27", "line9",
                                           "ring8", "grid34"));

TEST(MovementPlanner, Validation)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const SwapCountCost cost(q5);
    const MovementPlanner planner(q5, cost);
    EXPECT_THROW(planner.plan(2, 2), VaqError);
    EXPECT_THROW(MovementPlanner(q5, cost, -5), VaqError);
}

TEST(MovementPlanner, DisconnectedPairRejected)
{
    const topology::CouplingGraph split("split", 4,
                                        {{0, 1}, {2, 3}});
    const SwapCountCost cost(split);
    const MovementPlanner planner(split, cost);
    EXPECT_THROW(planner.plan(0, 3), VaqError);
}

} // namespace
} // namespace vaq::core

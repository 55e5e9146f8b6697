#include "core/router.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::core
{
namespace
{

// The router borrows its graph and cost model, so it refuses
// temporaries of either.
using topology::CouplingGraph;
static_assert(std::is_constructible_v<Router, const CouplingGraph &,
                                      const SwapCountCost &>);
static_assert(!std::is_constructible_v<Router, CouplingGraph,
                                       const SwapCountCost &>);
static_assert(!std::is_constructible_v<Router, const CouplingGraph &,
                                       SwapCountCost>);
static_assert(!std::is_constructible_v<Router, const CouplingGraph &,
                                       ReliabilityCost, RouterOptions>);

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

/** Every two-qubit gate of the routed circuit is executable. */
void
expectRouted(const Circuit &physical,
             const topology::CouplingGraph &graph)
{
    for (const Gate &g : physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(graph.coupled(g.q0, g.q1))
                << g.q0 << "," << g.q1;
        }
    }
}

class RouterTest
    : public ::testing::TestWithParam<RouteStrategy>
{
  protected:
    RouterTest()
        : graph(topology::ibmQ20Tokyo()),
          snap(test::uniformSnapshot(graph))
    {}

    RouterOptions
    options() const
    {
        RouterOptions o;
        o.strategy = GetParam();
        return o;
    }

    topology::CouplingGraph graph;
    calibration::Snapshot snap;
};

TEST_P(RouterTest, RoutesRandomCircuits)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Rng rng(7);
    for (int trial = 0; trial < 5; ++trial) {
        const Circuit logical = test::randomCircuit(8, 60, rng);
        const auto result = router.route(
            logical, Layout::identity(8, graph.numQubits()));
        expectRouted(result.physical, graph);
    }
}

TEST_P(RouterTest, OneQubitGatesFollowTheirQubit)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Circuit logical(2);
    logical.cx(0, 1).h(0).measure(0);
    const auto result = router.route(
        logical, Layout::identity(2, graph.numQubits()));
    // The H and MEASURE must act wherever program qubit 0 ended.
    const auto &gates = result.physical.gates();
    const Gate &h = gates[gates.size() - 2];
    const Gate &m = gates[gates.size() - 1];
    EXPECT_EQ(h.kind, GateKind::H);
    EXPECT_EQ(h.q0, result.final.phys(0));
    EXPECT_EQ(m.kind, GateKind::MEASURE);
    EXPECT_EQ(m.q0, result.final.phys(0));
}

TEST_P(RouterTest, FinalLayoutTracksSwaps)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Rng rng(8);
    const Circuit logical = test::randomCircuit(6, 40, rng);
    const Layout initial =
        Layout::identity(6, graph.numQubits());
    const auto result = router.route(logical, initial);

    // Replay the physical SWAPs over the initial layout; the
    // result must equal the reported final layout.
    Layout replay = initial;
    for (const Gate &g : result.physical.gates()) {
        if (g.kind == GateKind::SWAP)
            replay.applySwap(g.q0, g.q1);
    }
    for (int q = 0; q < 6; ++q)
        EXPECT_EQ(replay.phys(q), result.final.phys(q));
}

TEST_P(RouterTest, SwapCountReported)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Rng rng(9);
    const Circuit logical = test::randomCircuit(6, 40, rng);
    const auto result = router.route(
        logical, Layout::identity(6, graph.numQubits()));
    EXPECT_EQ(result.insertedSwaps,
              result.physical.swapCount());
}

TEST_P(RouterTest, AdjacentProgramNeedsNoSwaps)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Circuit logical(2);
    logical.cx(0, 1).cx(0, 1).cx(1, 0);
    const auto result = router.route(
        logical, Layout::identity(2, graph.numQubits()));
    EXPECT_EQ(result.insertedSwaps, 0u);
}

TEST_P(RouterTest, PreservesGateCountsPlusSwaps)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Rng rng(10);
    const Circuit logical = test::randomCircuit(6, 50, rng);
    const auto result = router.route(
        logical, Layout::identity(6, graph.numQubits()));
    EXPECT_EQ(result.physical.instructionCount(),
              logical.instructionCount() + result.insertedSwaps);
}

TEST_P(RouterTest, RequiresCompleteLayout)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Circuit logical(3);
    logical.cx(0, 2);
    Layout incomplete(3, graph.numQubits());
    incomplete.assign(0, 0);
    EXPECT_THROW(router.route(logical, incomplete), VaqError);
}

TEST_P(RouterTest, LayoutShapeValidated)
{
    const SwapCountCost cost(graph);
    const Router router(graph, cost, options());
    Circuit logical(3);
    logical.cx(0, 2);
    EXPECT_THROW(
        router.route(logical, Layout::identity(4,
                                               graph.numQubits())),
        VaqError);
    EXPECT_THROW(router.route(logical, Layout::identity(3, 5)),
                 VaqError);
}

INSTANTIATE_TEST_SUITE_P(Strategies, RouterTest,
                         ::testing::Values(
                             RouteStrategy::PerGate,
                             RouteStrategy::LayerAstar),
                         [](const auto &info) {
                             return info.param ==
                                            RouteStrategy::PerGate
                                        ? "PerGate"
                                        : "LayerAstar";
                         });

TEST(Router, ReliabilityRoutingAvoidsWeakLinksOnBv)
{
    // All CNOTs target one ancilla; under reliability costs the
    // routed circuit must use cheaper links than under uniform
    // costs (measured with the reliability model itself).
    const auto q20 = topology::ibmQ20Tokyo();
    Rng rng(11);
    const auto snap = test::randomSnapshot(q20, rng, 0.01, 0.20);
    const auto logical = workloads::bernsteinVazirani(8);
    const Layout initial =
        Layout::identity(8, q20.numQubits());

    const SwapCountCost uniform(q20);
    const ReliabilityCost reliable(q20, snap);
    const auto base =
        Router(q20, uniform).route(logical, initial);
    const auto vqm =
        Router(q20, reliable).route(logical, initial);

    auto totalCost = [&](const Circuit &physical) {
        double c = 0.0;
        for (const Gate &g : physical.gates()) {
            if (g.kind == GateKind::SWAP)
                c += reliable.swapCost(g.q0, g.q1);
            else if (g.isTwoQubit())
                c += reliable.cnotCost(g.q0, g.q1);
        }
        return c;
    };
    // Per-gate decisions are locally optimal but not globally:
    // allow a small myopia margin (the Mapper portfolio removes
    // it at the policy level).
    EXPECT_LE(totalCost(vqm.physical),
              totalCost(base.physical) * 1.10);
}

TEST(Router, RelocationCanBeDisabled)
{
    const auto ring4 = topology::ring(4);
    auto snap = test::uniformSnapshot(ring4, 0.01);
    snap.setLinkError(ring4.linkIndex(0, 1), 0.4);
    const ReliabilityCost cost(ring4, snap);

    Circuit logical(2);
    logical.cx(0, 1);

    RouterOptions frozen;
    frozen.allowRelocation = false;
    const auto noMove = Router(ring4, cost, frozen)
                            .route(logical,
                                   Layout::identity(2, 4));
    EXPECT_EQ(noMove.insertedSwaps, 0u);

    const auto moved =
        Router(ring4, cost).route(logical,
                                  Layout::identity(2, 4));
    EXPECT_GT(moved.insertedSwaps, 0u);
}

} // namespace
} // namespace vaq::core

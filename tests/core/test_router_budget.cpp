/**
 * @file
 * Regression test for LayerAstar's budget fallback. When the A*
 * search of a layer runs out of budget the router plans the layer's
 * pairs one at a time; a later pair's swaps may then separate a pair
 * routed before it, whose gate must be emitted before that swap.
 *
 * The case: the healthy region of Falcon-27 under a seeded
 * quarantine (qubit 18 and links 14-16, 15-18, 17-18, 18-21 and
 * 22-25 pruned: 16 qubits, 16 links), qft-14 placed by the
 * SwapCount LocalityAllocator and routed by the SwapCount LayerAstar
 * route. Two of its layers exhaust the A* budget.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "calibration/synthetic.hpp"
#include "common/rng.hpp"
#include "core/allocator.hpp"
#include "core/compile_cache.hpp"
#include "core/cost_model.hpp"
#include "core/router.hpp"
#include "core/verify.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::core
{
namespace
{

/** Seed-101 synthetic Falcon-27 cycle with one non-finite qubit and
 *  two dead links (the degraded-compile digest's snapshot). */
calibration::Snapshot
quarantinedFalcon27(const topology::CouplingGraph &graph)
{
    constexpr std::uint64_t kSeed = 101;
    calibration::Snapshot snapshot =
        calibration::SyntheticSource(graph, {}, kSeed).nextCycle();
    Rng rng(kSeed);
    const int q = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(graph.numQubits())));
    snapshot.qubit(q).t1Us = std::numeric_limits<double>::quiet_NaN();
    for (int dead = 0; dead < 2; ++dead)
        snapshot.setLinkError(rng.uniformInt(graph.linkCount()), 0.99);
    return snapshot;
}

TEST(RouterBudget, FallbackNeverSeparatesARoutedPair)
{
    const topology::CouplingGraph falcon = topology::ibmFalcon27();
    const auto context = inspectCalibration(
        falcon, quarantinedFalcon27(falcon),
        CalibrationHandling::Sanitize);
    ASSERT_NE(context->region(), nullptr);
    const CalibrationContext &region = *context->region();
    const topology::CouplingGraph &sub = region.graph();
    ASSERT_EQ(sub.numQubits(), 16);
    ASSERT_EQ(sub.linkCount(), 16u);

    const circuit::Circuit logical = workloads::qft(14);
    const Layout initial =
        LocalityAllocator(CostKind::SwapCount).allocate(logical, region);
    const SwapCountCost cost(sub);
    const Router router(sub, cost,
                        {.strategy = RouteStrategy::LayerAstar});
    const RouteResult routed = router.route(logical, initial);

    MappedCircuit mapped(logical.numQubits(), sub.numQubits());
    mapped.physical = routed.physical;
    mapped.initial = initial;
    mapped.final = routed.final;
    mapped.insertedSwaps = routed.insertedSwaps;
    const VerificationReport report =
        verifyMapping(mapped, logical, sub);
    EXPECT_TRUE(report.ok()) << report.failure;
}

} // namespace
} // namespace vaq::core

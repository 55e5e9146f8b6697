#include "core/astar_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "calibration/synthetic.hpp"
#include "circuit/layering.hpp"
#include "common/error.hpp"
#include "common/hashing.hpp"
#include "core/allocator.hpp"
#include "core/compile_cache.hpp"
#include "core/router.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::core
{
namespace
{

/** Apply a swap sequence to a copy of the layout. */
Layout
applied(Layout layout, const SwapSequence &swaps)
{
    for (const auto &[u, v] : swaps)
        layout.applySwap(u, v);
    return layout;
}

TEST(AstarRouter, AlreadyAdjacentUniformCostIsEmpty)
{
    const auto line = topology::linear(4);
    const SwapCountCost cost(line);
    const MovementPlanner planner(line, cost);
    const Layout layout = Layout::identity(4, 4);
    const auto swaps = planLayerSwaps(line, cost, planner, layout,
                                      {{0, 1}}, 10000);
    ASSERT_TRUE(swaps.has_value());
    EXPECT_TRUE(swaps->empty());
}

TEST(AstarRouter, SingleGateUsesMinimalSwaps)
{
    const auto line = topology::linear(5);
    const SwapCountCost cost(line);
    const MovementPlanner planner(line, cost);
    const Layout layout = Layout::identity(5, 5);
    const auto swaps = planLayerSwaps(line, cost, planner, layout,
                                      {{0, 4}}, 100000);
    ASSERT_TRUE(swaps.has_value());
    EXPECT_EQ(swaps->size(), 3u);
    const Layout result = applied(layout, *swaps);
    EXPECT_TRUE(line.coupled(result.phys(0), result.phys(4)));
}

TEST(AstarRouter, GoalMakesEveryPairAdjacent)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const Layout layout = Layout::identity(20, 20);
    const std::vector<ProgPair> pairs{{0, 19}, {4, 15}, {2, 13}};
    const auto swaps = planLayerSwaps(q20, cost, planner, layout,
                                      pairs, 200000);
    ASSERT_TRUE(swaps.has_value());
    const Layout result = applied(layout, *swaps);
    for (const auto &[qa, qb] : pairs) {
        EXPECT_TRUE(
            q20.coupled(result.phys(qa), result.phys(qb)));
    }
}

TEST(AstarRouter, EmittedSwapsAreRealLinks)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const Layout layout = Layout::identity(20, 20);
    const auto swaps = planLayerSwaps(q20, cost, planner, layout,
                                      {{0, 14}}, 100000);
    ASSERT_TRUE(swaps.has_value());
    for (const auto &[u, v] : *swaps)
        EXPECT_TRUE(q20.coupled(u, v));
}

TEST(AstarRouter, TinyBudgetReturnsNulloptOrPlan)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const Layout layout = Layout::identity(20, 20);
    const auto swaps = planLayerSwaps(q20, cost, planner, layout,
                                      {{0, 19}, {5, 14}}, 3);
    // With 3 expansions the search cannot finish; the fallback
    // contract is "nullopt" (unless a goal was luckily found).
    if (swaps.has_value()) {
        const Layout result = applied(layout, *swaps);
        EXPECT_TRUE(q20.coupled(result.phys(0), result.phys(19)));
    } else {
        SUCCEED();
    }
}

TEST(AstarRouter, ReliabilityAvoidsWeakCorridor)
{
    // 2x3 grid; make the entire left column weak. Routing 0-5
    // must prefer swaps on the strong right side.
    const auto g = topology::grid(2, 3);
    auto snap = test::uniformSnapshot(g, 0.02);
    snap.setLinkError(g.linkIndex(0, 3), 0.30);
    snap.setLinkError(g.linkIndex(0, 1), 0.30);
    const ReliabilityCost cost(g, snap);
    const MovementPlanner planner(g, cost);
    const Layout layout = Layout::identity(6, 6);
    const auto swaps = planLayerSwaps(g, cost, planner, layout,
                                      {{0, 5}}, 100000);
    ASSERT_TRUE(swaps.has_value());
    for (const auto &[u, v] : *swaps) {
        const bool weak01 = (u == 0 && v == 1) ||
                            (u == 1 && v == 0);
        const bool weak03 = (u == 0 && v == 3) ||
                            (u == 3 && v == 0);
        // Qubit 0 itself must move over *some* link, but the plan
        // should use at most one weak hop, never both.
        EXPECT_FALSE(weak01 && weak03);
    }
    const Layout result = applied(layout, *swaps);
    EXPECT_TRUE(g.coupled(result.phys(0), result.phys(5)));
}

TEST(AstarRouter, UniformCostMatchesPlannerOnSinglePairs)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const SwapCountCost cost(q20);
    const MovementPlanner planner(q20, cost);
    const Layout layout = Layout::identity(20, 20);
    for (const auto &pair :
         std::vector<ProgPair>{{0, 19}, {3, 16}, {9, 10}}) {
        const auto swaps = planLayerSwaps(
            q20, cost, planner, layout, {pair}, 300000);
        ASSERT_TRUE(swaps.has_value());
        const auto plan =
            planner.plan(layout.phys(pair.first),
                         layout.phys(pair.second));
        EXPECT_EQ(swaps->size(), plan.swaps.size());
    }
}

TEST(AstarRouter, EmptyPairsRejected)
{
    const auto line = topology::linear(3);
    const SwapCountCost cost(line);
    const MovementPlanner planner(line, cost);
    const Layout layout = Layout::identity(3, 3);
    EXPECT_THROW(
        planLayerSwaps(line, cost, planner, layout, {}, 100),
        VaqError);
}

/** What a layer corpus replay saw: planLayerSwaps calls, how many
 *  returned nullopt, and an FNV-1a digest of every outcome. */
struct CorpusDigest
{
    std::size_t calls = 0;
    std::size_t nullopts = 0;
    std::uint64_t digest = kHashSeed;
};

/**
 * Replay Router's LayerAstar loop over `logical` on the locality
 * layout (the placement of every LayerAstar route of "baseline" and
 * "vqm"), folding each planLayerSwaps outcome into `out`. The layers
 * handed to the search are exactly Router's: the replay applies the
 * same swaps, or the same per-pair fallback on nullopt, and must end
 * on Router's final layout and swap count.
 */
void
replayLayers(const topology::CouplingGraph &graph,
             const CalibrationContext &context, CostKind kind,
             const circuit::Circuit &logical, std::size_t cap,
             CorpusDigest &out)
{
    const PlanCache &plans = context.plans(kind, kUnlimitedHops);
    RouterOptions options;
    options.strategy = RouteStrategy::LayerAstar;
    options.astarNodeCap = cap;
    options.planCache = &plans;
    const CostModel &cost = plans.cost();
    const MovementPlanner planner(graph, cost, options.mah, &plans);
    const bool relocate =
        options.allowRelocation && cost.relocationCanHelp();

    const Layout initial =
        LocalityAllocator().allocate(logical, context);
    Layout layout = initial;
    std::size_t inserted = 0;
    const auto apply = [&](const auto &swaps) {
        for (const auto &[u, v] : swaps) {
            layout.applySwap(u, v);
            ++inserted;
        }
    };
    for (const circuit::Layer &layer : circuit::layerize(logical)) {
        std::vector<ProgPair> pairs;
        for (std::size_t idx : layer) {
            const circuit::Gate &g = logical.gates()[idx];
            if (g.isTwoQubit())
                pairs.emplace_back(g.q0, g.q1);
        }
        bool needsWork = !pairs.empty() && relocate;
        for (const auto &[qa, qb] : pairs)
            needsWork |= !graph.coupled(layout.phys(qa), layout.phys(qb));
        if (!needsWork)
            continue;
        const auto swaps =
            planLayerSwaps(graph, cost, planner, layout, pairs, cap);
        ++out.calls;
        if (!swaps.has_value()) {
            ++out.nullopts;
            out.digest = hashCombine(out.digest, ~std::uint64_t{0});
            for (const auto &[qa, qb] : pairs) {
                const int pa = layout.phys(qa);
                const int pb = layout.phys(qb);
                if (!graph.coupled(pa, pb) || relocate)
                    apply(planner.plan(pa, pb).swaps);
            }
            continue;
        }
        out.digest = hashCombine(
            out.digest, static_cast<std::uint64_t>(swaps->size()));
        for (const auto &[u, v] : *swaps) {
            out.digest = hashCombine(
                out.digest, static_cast<std::uint64_t>(u * 1000 + v));
        }
        apply(*swaps);
    }

    const RouteResult routed =
        Router(graph, cost, options).route(logical, initial);
    EXPECT_EQ(layout, routed.final);
    EXPECT_EQ(inserted, routed.insertedSwaps);
}

/** One pinned corpus: every layer the LayerAstar routes of
 *  "baseline" (swap count) or "vqm" (reliability) hand to the search
 *  when compiling the Table 1 suite on `machine`, over two seeded
 *  clean synthetic snapshots. */
struct CorpusPin
{
    const char *machine;
    CostKind kind;
    std::size_t cap;
    std::size_t calls;
    std::size_t nullopts;
    std::uint64_t digest;
};

/** A cap small enough that layers on both machines run out. */
constexpr std::size_t kSmallCap = 16;
constexpr std::size_t kDefaultCap = RouterOptions{}.astarNodeCap;

/** Recorded with the node-per-vector search (one heap vector per
 *  visited layout); any rewrite of the search must return
 *  bit-identical sequences. */
constexpr CorpusPin kCorpusPins[] = {
    {"q20", CostKind::SwapCount, kDefaultCap, 182, 0,
     0x4b6f132ed31cfb03ULL},
    {"q20", CostKind::Reliability, kDefaultCap, 462, 0,
     0x453aa31ef6d37b98ULL},
    {"falcon27", CostKind::SwapCount, kDefaultCap, 268, 2,
     0x477670c50777f1c3ULL},
    {"falcon27", CostKind::Reliability, kDefaultCap, 452, 3,
     0x083b0345408965f9ULL},
    {"q20", CostKind::SwapCount, kSmallCap, 190, 12,
     0xe530bdf593e58b13ULL},
    {"q20", CostKind::Reliability, kSmallCap, 462, 6,
     0xca4f7f015938419aULL},
    {"falcon27", CostKind::SwapCount, kSmallCap, 286, 116,
     0x653a0b88517a81fbULL},
    {"falcon27", CostKind::Reliability, kSmallCap, 452, 59,
     0xc26672e91bddf7eaULL},
};

/** A pin as its kCorpusPins line, so a mismatch prints the line to
 *  compare (or to paste when re-recording an intended change). */
std::string
pinRow(const CorpusPin &pin)
{
    char row[128];
    std::snprintf(
        row, sizeof(row),
        "{\"%s\", CostKind::%s, %s, %zu, %zu, 0x%016llxULL}",
        pin.machine,
        pin.kind == CostKind::SwapCount ? "SwapCount" : "Reliability",
        pin.cap == kSmallCap ? "kSmallCap" : "kDefaultCap", pin.calls,
        pin.nullopts, static_cast<unsigned long long>(pin.digest));
    return row;
}

/** Replay every kCorpusPins row with node cap `cap`; returns the
 *  number of nullopt outcomes seen. */
std::size_t
checkCorpusPins(std::size_t cap)
{
    constexpr std::uint64_t kSnapshotSeeds[] = {11, 29};
    std::size_t nullopts = 0;
    for (const CorpusPin &pin : kCorpusPins) {
        if (pin.cap != cap)
            continue;
        const topology::CouplingGraph graph =
            std::string(pin.machine) == "q20"
                ? topology::ibmQ20Tokyo()
                : topology::ibmFalcon27();
        const auto suite = workloads::standardSuite(graph);
        CorpusDigest seen;
        for (const std::uint64_t seed : kSnapshotSeeds) {
            const CalibrationContext context(
                graph, calibration::SyntheticSource(
                           graph, calibration::SyntheticParams{}, seed)
                           .nextCycle());
            context.requireTables();
            for (const workloads::Workload &w : suite)
                replayLayers(graph, context, pin.kind, w.circuit,
                             pin.cap, seen);
        }
        EXPECT_EQ(pinRow({pin.machine, pin.kind, pin.cap, seen.calls,
                          seen.nullopts, seen.digest}),
                  pinRow(pin));
        nullopts += seen.nullopts;
    }
    return nullopts;
}

TEST(AstarRouter, Table1LayerCorpusIsPinnedAtDefaultCap)
{
    checkCorpusPins(kDefaultCap);
}

TEST(AstarRouter, Table1LayerCorpusIsPinnedAtSmallCap)
{
    // The small cap must exercise the nullopt outcome.
    EXPECT_GT(checkCorpusPins(kSmallCap), 0u);
}

} // namespace
} // namespace vaq::core

/**
 * @file
 * Unit tests for core::CalibrationContext: one matrix build per
 * context, one plan table per (cost kind, MAH) however many threads
 * ask for it, table cells equal to the per-query planner, and
 * compileCircuit refusing a context built from other data.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "calibration/snapshot.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_request.hpp"
#include "core/mapper.hpp"
#include "core/movement_planner.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::core
{
namespace
{

TEST(CalibrationContext, BuildsOneMatrixPerContext)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    Rng rng(5);
    const calibration::Snapshot snapshot =
        test::randomSnapshot(q20, rng);

    const PathCacheStats before = pathCacheStats();
    const CalibrationContext context(q20, snapshot);
    const Mapper mapper = makeMapper({.name = "vqa+vqm"});
    for (int i = 0; i < 3; ++i)
        mapper.map(test::randomCircuit(6, 20, rng), context);
    const PathCacheStats after = pathCacheStats();

    EXPECT_EQ(after.matrixMisses - before.matrixMisses, 1u);
    // Four vqa+vqm placements read the matrix: induced, full
    // strength, qubit-aware and reliability locality.
    EXPECT_EQ(after.matrixHits - before.matrixHits, 3u * 4u);
    EXPECT_EQ(&context.reliability(), &context.reliability());
    EXPECT_EQ(context.reliability().snapshotHash(),
              snapshot.contentHash());
}

TEST(CalibrationContext, ConcurrentRequestsShareOnePlanTable)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    const CalibrationContext context(q20, test::uniformSnapshot(q20));
    const PathCacheStats before = pathCacheStats();

    constexpr int kThreads = 8;
    std::vector<const PlanCache *> seen(kThreads, nullptr);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            seen[static_cast<std::size_t>(t)] =
                &context.plans(CostKind::Reliability, 4);
        });
    }
    go.store(true);
    for (std::thread &thread : threads)
        thread.join();

    for (const PlanCache *table : seen)
        EXPECT_EQ(table, seen.front());
    const PathCacheStats after = pathCacheStats();
    EXPECT_EQ(after.planMisses - before.planMisses, 1u);
    EXPECT_EQ(after.planHits - before.planHits, kThreads - 1u);
    // Another (kind, MAH) gets its own table.
    EXPECT_NE(&context.plans(CostKind::Reliability, kUnlimitedHops),
              seen.front());
}

TEST(CalibrationContext, PlanCellsMatchPerQueryPlanner)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    Rng rng(17);
    const calibration::Snapshot snapshot =
        test::randomSnapshot(q20, rng);
    const CalibrationContext context(q20, snapshot);

    const struct
    {
        CostKind kind;
        int mah;
    } tables[] = {{CostKind::Reliability, kUnlimitedHops},
                  {CostKind::SwapCount, kUnlimitedHops},
                  {CostKind::Reliability, 4}};
    for (const auto &[kind, mah] : tables) {
        const PlanCache &table = context.plans(kind, mah);
        const std::unique_ptr<CostModel> cost =
            makeCostModel(kind, q20, snapshot);
        const MovementPlanner reference(q20, *cost, mah);
        for (int a = 0; a < q20.numQubits(); ++a) {
            for (int b = 0; b < q20.numQubits(); ++b) {
                if (a == b) {
                    EXPECT_THROW(table.plan(a, b), VaqError);
                    continue;
                }
                const MovementPlan expected = reference.plan(a, b);
                const MovementPlan &got = table.plan(a, b);
                EXPECT_EQ(got.swaps, expected.swaps)
                    << "pair (" << a << ", " << b << ") mah " << mah;
                EXPECT_EQ(got.cost, expected.cost);
                EXPECT_EQ(got.extraHops, expected.extraHops);
                EXPECT_EQ(got.gateA, expected.gateA);
                EXPECT_EQ(got.gateB, expected.gateB);
            }
        }
    }
}

TEST(CalibrationContext, CompileRejectsContextFromOtherData)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    Rng rng(29);
    const calibration::Snapshot built =
        test::randomSnapshot(q20, rng);
    const calibration::Snapshot other =
        test::randomSnapshot(q20, rng);
    const CalibrationContext context(q20, built);

    CompileRequest request;
    request.circuit = test::randomCircuit(4, 12, rng);
    CompileContext injected;
    injected.calibration = &context;

    EXPECT_THROW(compile(request, q20, other, injected), VaqError);
    const topology::CouplingGraph grid = topology::grid(4, 5);
    EXPECT_THROW(compile(request, grid, test::uniformSnapshot(grid),
                         injected),
                 VaqError);

    // The matching snapshot compiles exactly as without a context.
    const CompileResult shared =
        compile(request, q20, built, injected);
    const CompileResult plain = compile(request, q20, built);
    ASSERT_TRUE(shared.ok());
    EXPECT_EQ(shared.mapped.physical, plain.mapped.physical);
    EXPECT_EQ(shared.analyticPst, plain.analyticPst);
}

} // namespace
} // namespace vaq::core

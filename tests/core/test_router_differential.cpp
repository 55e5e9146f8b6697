/**
 * @file
 * Differential harness for the per-snapshot calibration context:
 * a compile against a shared context whose tables earlier compiles
 * already filled (in their own query order) must produce
 * bit-identical output to a compile against a fresh private one,
 * and routing from a context's plan table must match the per-query
 * route search. The guarantee rests on the reliability matrix
 * re-accumulating each Floyd-Warshall distance along its next-hop
 * chain — the exact left-to-right sum Dijkstra forms — and on the
 * plan tables storing exactly what the per-query planner computes;
 * these tests and tests/core/test_calibration_context.cpp are the
 * enforcement.
 */
#include <gtest/gtest.h>

#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/mapper.hpp"
#include "core/router.hpp"
#include "graph/reliability_matrix.hpp"
#include "graph/shortest_path.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace
{

using namespace vaq;

double
scoreOf(const core::MappedCircuit &mapped,
        const topology::CouplingGraph &graph,
        const calibration::Snapshot &snapshot)
{
    const sim::NoiseModel model(graph, snapshot,
                                sim::CoherenceMode::PerOp);
    return sim::analyticPst(mapped.physical, model);
}

/**
 * Compile against a fresh private context and against `shared`,
 * and require the outputs to agree bit for bit: same physical gate
 * stream, same layouts, same SWAP count, same analytic PST double.
 */
void
expectIdenticalCompile(const core::Mapper &mapper,
                       const circuit::Circuit &logical,
                       const core::CalibrationContext &shared)
{
    const topology::CouplingGraph &graph = shared.graph();
    const calibration::Snapshot &snapshot = shared.snapshot();
    const core::MappedCircuit fresh =
        mapper.map(logical, graph, snapshot);
    const core::MappedCircuit reused = mapper.map(logical, shared);

    EXPECT_EQ(fresh.physical, reused.physical);
    EXPECT_EQ(fresh.initial, reused.initial);
    EXPECT_EQ(fresh.final, reused.final);
    EXPECT_EQ(fresh.insertedSwaps, reused.insertedSwaps);
    EXPECT_EQ(scoreOf(fresh, graph, snapshot),
              scoreOf(reused, graph, snapshot));
}

/**
 * The bit-compatibility cornerstone: Floyd-Warshall distances,
 * re-accumulated along next-hop chains, equal repeated-Dijkstra
 * distances exactly (== on doubles, no tolerance).
 */
TEST(RouterDifferential, MatrixDistancesMatchDijkstraBitwise)
{
    Rng rng(11);
    for (const auto &machine :
         {topology::ibmQ20Tokyo(), topology::ibmFalcon27(),
          topology::grid(4, 5), topology::ring(9)}) {
        for (int trial = 0; trial < 5; ++trial) {
            const calibration::Snapshot snapshot =
                test::randomSnapshot(machine, rng);
            const graph::WeightedGraph costs =
                core::reliabilityCostGraph(machine, snapshot);
            const graph::ReliabilityMatrix matrix(costs);
            const auto reference =
                graph::allPairsDistances(costs);
            for (int a = 0; a < machine.numQubits(); ++a) {
                for (int b = 0; b < machine.numQubits(); ++b) {
                    EXPECT_EQ(
                        matrix.distance(a, b),
                        reference[static_cast<std::size_t>(a)]
                                 [static_cast<std::size_t>(b)])
                        << machine.name() << " trial " << trial
                        << " pair (" << a << ", " << b << ")";
                }
            }
        }
    }
}

TEST(RouterDifferential, VqmMatchesSeedOn50RandomCircuits)
{
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    Rng rng(23);
    for (int trial = 0; trial < 50; ++trial) {
        const calibration::Snapshot snapshot =
            test::randomSnapshot(machine, rng);
        const int qubits =
            3 + static_cast<int>(rng.uniformInt(std::uint64_t{6}));
        const circuit::Circuit logical = test::randomCircuit(
            qubits,
            10 + static_cast<int>(rng.uniformInt(std::uint64_t{20})),
            rng);
        // Warm the shared context with another program first.
        const core::CalibrationContext shared(machine, snapshot);
        mapper.map(test::randomCircuit(qubits, 20, rng), shared);
        expectIdenticalCompile(mapper, logical, shared);
    }
}

TEST(RouterDifferential, FullPortfoliosMatchSeed)
{
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    // Every allocator/cost/strategy combination the portfolios
    // exercise: baseline (uniform costs), VQA+VQM (strength
    // allocation + reliability routing), MAH-bounded VQM.
    const core::Mapper baseline = core::makeMapper({.name = "baseline"});
    const core::Mapper vqaVqm = core::makeMapper({.name = "vqa+vqm"});
    const core::Mapper vqmMah = core::makeMapper({.name = "vqm", .mah = 4});
    Rng rng(31);
    for (int trial = 0; trial < 8; ++trial) {
        const calibration::Snapshot snapshot =
            test::randomSnapshot(machine, rng);
        const circuit::Circuit logical =
            test::randomCircuit(6, 24, rng);
        // One context per snapshot: each mapper reuses the tables
        // the mappers before it filled.
        const core::CalibrationContext shared(machine, snapshot);
        expectIdenticalCompile(baseline, logical, shared);
        expectIdenticalCompile(vqaVqm, logical, shared);
        expectIdenticalCompile(vqmMah, logical, shared);
    }
}

TEST(RouterDifferential, UniformCalibrationTiesResolveIdentically)
{
    // Uniform link errors make every route cost tie; tables filled
    // by earlier compiles and fresh ones must still break every tie
    // the same way.
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    const core::CalibrationContext shared(
        machine, test::uniformSnapshot(machine));
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    Rng rng(47);
    for (int trial = 0; trial < 10; ++trial) {
        const circuit::Circuit logical =
            test::randomCircuit(7, 30, rng);
        expectIdenticalCompile(mapper, logical, shared);
    }
}

TEST(RouterDifferential, BatchAgreesAcrossThreadCounts)
{
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    Rng rng(59);

    std::vector<circuit::Circuit> circuits;
    for (int i = 0; i < 12; ++i)
        circuits.push_back(test::randomCircuit(5, 18, rng));
    std::vector<calibration::Snapshot> snapshots;
    for (int s = 0; s < 3; ++s)
        snapshots.push_back(test::randomSnapshot(machine, rng));

    // Sequential reference, one private context per compile.
    std::vector<core::MappedCircuit> reference;
    for (const auto &snapshot : snapshots) {
        for (const auto &circuit : circuits)
            reference.push_back(mapper.map(circuit, machine, snapshot));
    }

    for (const std::size_t threads : {1u, 4u, 8u}) {
        core::BatchOptions options;
        options.compile.cacheEnabled = true;
        options.compile.threads = threads;
        core::BatchCompiler compiler(mapper, machine, options);
        const std::vector<core::BatchResult> results =
            compiler.compileAll(circuits, snapshots);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const core::MappedCircuit &seed = reference[i];
            const core::MappedCircuit &got = results[i].mapped;
            EXPECT_EQ(seed.physical, got.physical)
                << "job " << i << " with " << threads
                << " threads";
            EXPECT_EQ(seed.initial, got.initial);
            EXPECT_EQ(seed.final, got.final);
            EXPECT_EQ(seed.insertedSwaps, got.insertedSwaps);
            EXPECT_EQ(
                scoreOf(seed, machine,
                        snapshots[results[i].snapshot]),
                results[i].analyticPst);
        }
    }
}

/**
 * Routing from a context's plan table matches the per-query route
 * search the router runs without one, for both strategies, both
 * cost kinds and a MAH budget, from scattered initial layouts.
 */
TEST(RouterDifferential, PlanTableRoutesMatchPerQuerySearch)
{
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    Rng rng(83);
    for (int trial = 0; trial < 3; ++trial) {
        const core::CalibrationContext context(
            machine, test::randomSnapshot(machine, rng));
        const circuit::Circuit logical =
            test::randomCircuit(5, 16, rng);
        std::vector<topology::PhysQubit> slots(20);
        for (int p = 0; p < 20; ++p)
            slots[static_cast<std::size_t>(p)] = p;
        rng.shuffle(slots);
        core::Layout initial(5, 20);
        for (int q = 0; q < 5; ++q)
            initial.assign(q, slots[static_cast<std::size_t>(q)]);

        for (const core::CostKind kind :
             {core::CostKind::SwapCount, core::CostKind::Reliability}) {
            for (const int mah : {core::kUnlimitedHops, 2}) {
                for (const core::RouteStrategy strategy :
                     {core::RouteStrategy::PerGate,
                      core::RouteStrategy::LayerAstar}) {
                    const core::PlanCache &table =
                        context.plans(kind, mah);
                    core::RouterOptions options;
                    options.mah = mah;
                    options.strategy = strategy;
                    const core::RouteResult perQuery =
                        core::Router(machine, table.cost(), options)
                            .route(logical, initial);
                    options.planCache = &table;
                    const core::RouteResult tabled =
                        core::Router(machine, table.cost(), options)
                            .route(logical, initial);
                    EXPECT_EQ(perQuery.physical, tabled.physical)
                        << "trial " << trial << " mah " << mah;
                    EXPECT_EQ(perQuery.final, tabled.final);
                    EXPECT_EQ(perQuery.insertedSwaps,
                              tabled.insertedSwaps);
                }
            }
        }
    }
}

} // namespace

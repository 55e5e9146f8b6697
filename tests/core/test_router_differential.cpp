/**
 * @file
 * Differential harness for the shared path caches: with the caches
 * on, every compile must produce bit-identical output to the seed
 * per-query code path (caches off). The guarantee rests on the
 * reliability matrix re-accumulating each Floyd-Warshall distance
 * along its next-hop chain — the exact left-to-right sum Dijkstra
 * forms — and on the plan tables storing exactly what the uncached
 * planner computes; these tests are the enforcement.
 */
#include <gtest/gtest.h>

#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_options.hpp"
#include "core/mapper.hpp"
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
 * Compile with caches off (the seed path) and on, and require the
 * outputs to agree bit for bit: same physical gate stream, same
 * layouts, same SWAP count, same analytic PST double.
 */
void
expectIdenticalCompile(const core::Mapper &mapper,
                       const circuit::Circuit &logical,
                       const topology::CouplingGraph &graph,
                       const calibration::Snapshot &snapshot)
{
    const core::MappedCircuit seed = mapper.map(
        logical, graph, snapshot,
        core::CompileOptions{.cacheEnabled = false});
    const core::MappedCircuit cached = mapper.map(
        logical, graph, snapshot,
        core::CompileOptions{.cacheEnabled = true});

    EXPECT_EQ(seed.physical, cached.physical);
    EXPECT_EQ(seed.initial, cached.initial);
    EXPECT_EQ(seed.final, cached.final);
    EXPECT_EQ(seed.insertedSwaps, cached.insertedSwaps);
    EXPECT_EQ(scoreOf(seed, graph, snapshot),
              scoreOf(cached, graph, snapshot));
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
        expectIdenticalCompile(mapper, logical, machine, snapshot);
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
        expectIdenticalCompile(baseline, logical, machine,
                               snapshot);
        expectIdenticalCompile(vqaVqm, logical, machine, snapshot);
        expectIdenticalCompile(vqmMah, logical, machine, snapshot);
    }
}

TEST(RouterDifferential, UniformCalibrationTiesResolveIdentically)
{
    // Uniform link errors make every route cost tie; the cached
    // and per-query searches must still break every tie the same
    // way.
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    const calibration::Snapshot snapshot =
        test::uniformSnapshot(machine);
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    Rng rng(47);
    for (int trial = 0; trial < 10; ++trial) {
        const circuit::Circuit logical =
            test::randomCircuit(7, 30, rng);
        expectIdenticalCompile(mapper, logical, machine, snapshot);
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

    // Sequential seed reference, caches off.
    std::vector<core::MappedCircuit> reference;
    for (const auto &snapshot : snapshots) {
        for (const auto &circuit : circuits) {
            reference.push_back(mapper.map(
                circuit, machine, snapshot,
                core::CompileOptions{.cacheEnabled = false}));
        }
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

TEST(RouterDifferential, SharedMatrixIsReusedAndInvalidated)
{
    const topology::CouplingGraph machine = topology::ibmQ5Tenerife();
    Rng rng(71);
    const calibration::Snapshot snapshot =
        test::randomSnapshot(machine, rng);

    // The thread-local override Mapper::map uses internally,
    // exercised directly against the shared-cache entry points.
    const core::PathCacheScope on(true);
    const auto first =
        core::sharedReliabilityMatrix(machine, snapshot);
    const auto second =
        core::sharedReliabilityMatrix(machine, snapshot);
    EXPECT_EQ(first.get(), second.get());

    const std::uint64_t epochBefore =
        core::pathCacheStats().matrixEpoch;
    core::invalidatePathCaches();
    EXPECT_GT(core::pathCacheStats().matrixEpoch, epochBefore);

    // Old handles stay valid; fresh lookups rebuild.
    const auto third =
        core::sharedReliabilityMatrix(machine, snapshot);
    EXPECT_NE(first.get(), third.get());
    EXPECT_EQ(first->distance(0, 4), third->distance(0, 4));
}

} // namespace

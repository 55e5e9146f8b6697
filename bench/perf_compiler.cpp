/**
 * @file
 * google-benchmark timing of the compilation pipeline: allocation,
 * movement planning, per-gate routing, layer-A* routing, and the
 * full policy portfolios. NISQ compilation is run *per job* (the
 * runtime recompiles against fresh calibration, Section 5.3), so
 * compile latency matters.
 */
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "circuit/qasm.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_options.hpp"
#include "store/adapter.hpp"
#include "store/artifact_store.hpp"
#include "workloads/workloads.hpp"

namespace
{

using namespace vaq;

const bench::Q20Environment &
env()
{
    static const bench::Q20Environment instance;
    return instance;
}

void
BM_AllocateLocality(benchmark::State &state)
{
    const auto bv = workloads::bernsteinVazirani(16);
    const core::LocalityAllocator allocator;
    const core::CalibrationContext context(env().machine,
                                           env().averaged);
    for (auto _ : state)
        benchmark::DoNotOptimize(allocator.allocate(bv, context));
}
BENCHMARK(BM_AllocateLocality);

/**
 * The three vqa+vqm strength placements (range 0: induced,
 * full-strength, qubit-aware) on Bernstein-Vazirani of width range
 * 1. Each allocation runs the connected-region search once.
 */
void
BM_AllocateStrength(benchmark::State &state)
{
    struct Placement
    {
        const char *label;
        graph::SubgraphScore score;
        bool qubitAware;
    };
    static constexpr Placement kPlacements[] = {
        {"induced", graph::SubgraphScore::InducedWeight, false},
        {"full-strength", graph::SubgraphScore::FullStrength, false},
        {"qubit-aware", graph::SubgraphScore::InducedWeight, true},
    };
    const Placement &placement =
        kPlacements[static_cast<std::size_t>(state.range(0))];
    const auto bv = workloads::bernsteinVazirani(
        static_cast<int>(state.range(1)));
    const core::StrengthAllocator allocator(placement.score, 0,
                                            placement.qubitAware);
    const core::CalibrationContext context(env().machine,
                                           env().averaged);
    for (auto _ : state)
        benchmark::DoNotOptimize(allocator.allocate(bv, context));
    state.SetLabel(placement.label);
}
BENCHMARK(BM_AllocateStrength)
    ->ArgsProduct({{0, 1, 2}, {5, 12, 20}})
    ->Unit(benchmark::kMillisecond);

void
BM_MovementPlan(benchmark::State &state)
{
    const core::ReliabilityCost cost(env().machine,
                                     env().averaged);
    const core::MovementPlanner planner(env().machine, cost);
    int a = 0;
    for (auto _ : state) {
        const int b = (a + 13) % 20;
        benchmark::DoNotOptimize(planner.plan(a, b == a ? 19 : b));
        a = (a + 1) % 20;
    }
}
BENCHMARK(BM_MovementPlan);

void
BM_RoutePerGate(benchmark::State &state)
{
    const auto qft = workloads::qft(
        static_cast<int>(state.range(0)));
    const core::ReliabilityCost cost(env().machine,
                                     env().averaged);
    core::RouterOptions options;
    options.strategy = core::RouteStrategy::PerGate;
    const core::Router router(env().machine, cost, options);
    const auto initial = core::Layout::identity(
        qft.numQubits(), env().machine.numQubits());
    for (auto _ : state)
        benchmark::DoNotOptimize(router.route(qft, initial));
}
BENCHMARK(BM_RoutePerGate)->Arg(8)->Arg(12)->Arg(14);

void
BM_RouteLayerAstar(benchmark::State &state)
{
    const auto qft = workloads::qft(
        static_cast<int>(state.range(0)));
    const core::SwapCountCost cost(env().machine);
    core::RouterOptions options;
    options.strategy = core::RouteStrategy::LayerAstar;
    const core::Router router(env().machine, cost, options);
    const auto initial = core::Layout::identity(
        qft.numQubits(), env().machine.numQubits());
    for (auto _ : state)
        benchmark::DoNotOptimize(router.route(qft, initial));
}
BENCHMARK(BM_RouteLayerAstar)->Arg(8)->Arg(12);

void
BM_FullPolicy(benchmark::State &state)
{
    const auto suite = workloads::standardSuite(env().machine);
    const auto &w =
        suite[static_cast<std::size_t>(state.range(0))];
    const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mapper.map(w.circuit, env().machine, env().averaged));
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_FullPolicy)->DenseRange(0, 2)->Unit(
    benchmark::kMillisecond);

/**
 * The recompile-everything burst of the batch compiler: 100
 * programs x 4 calibration cycles. The acceptance target is >= 3x
 * the sequential seed compiler below — on few-core machines the
 * speedup comes from the shared reliability matrix and movement-
 * plan tables, not from parallelism.
 */
std::vector<circuit::Circuit>
batchCircuits()
{
    std::vector<circuit::Circuit> circuits;
    circuits.reserve(100);
    for (int i = 0; i < 100; ++i) {
        const int n = 4 + (i % 9);
        circuits.push_back(i % 2 == 0
                               ? workloads::bernsteinVazirani(n)
                               : workloads::qft(n));
    }
    return circuits;
}

std::vector<calibration::Snapshot>
batchSnapshots()
{
    calibration::SyntheticSource source(
        env().machine, calibration::SyntheticParams{},
        bench::kArchiveSeed);
    std::vector<calibration::Snapshot> snapshots;
    for (int c = 0; c < 4; ++c)
        snapshots.push_back(source.nextCycle());
    return snapshots;
}

void
BM_BatchCompile100x4(benchmark::State &state)
{
    const auto circuits = batchCircuits();
    const auto snapshots = batchSnapshots();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    core::BatchOptions options;
    options.compile.cacheEnabled = true;
    options.compile.threads =
        static_cast<std::size_t>(state.range(0));
    options.scoreResults = false;
    core::BatchCompiler compiler(mapper, env().machine, options);
    const core::PathCacheStats before = core::pathCacheStats();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compiler.compileAll(circuits, snapshots));
    }
    const core::PathCacheStats after = core::pathCacheStats();
    state.counters["jobs_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(circuits.size()) *
            static_cast<double>(snapshots.size()),
        benchmark::Counter::kIsRate);
    // Table reuse over the whole run: reads that reused a
    // calibration context's matrix or plan table, over all reads
    // and builds.
    const double hits = static_cast<double>(
        (after.matrixHits - before.matrixHits) +
        (after.planHits - before.planHits));
    const double lookups =
        hits + static_cast<double>(
                   (after.matrixMisses - before.matrixMisses) +
                   (after.planMisses - before.planMisses));
    state.counters["cache_hit_ratio"] =
        lookups > 0.0 ? hits / lookups : 0.0;
}
// Real time + process CPU: the work happens on pool threads, so
// main-thread CPU time (the default) would be near zero and the
// rate counter meaningless.
BENCHMARK(BM_BatchCompile100x4)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void
BM_SequentialCompile100x4_Seed(benchmark::State &state)
{
    const auto circuits = batchCircuits();
    const auto snapshots = batchSnapshots();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    // The sequential compiler: one compile at a time, each against
    // a private calibration context, so every route and distance
    // table is rebuilt per job.
    for (auto _ : state) {
        for (const auto &snapshot : snapshots) {
            for (const auto &circuit : circuits) {
                benchmark::DoNotOptimize(
                    mapper.map(circuit, env().machine, snapshot));
            }
        }
    }
    state.counters["jobs_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(circuits.size()) *
            static_cast<double>(snapshots.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialCompile100x4_Seed)
    ->Unit(benchmark::kMillisecond);

/**
 * Cold-vs-warm compile latency over a calibration-series replay
 * through the persistent artifact store (src/store/). The series
 * drifts one qubit per cycle, so even a cold pass serves most of
 * cycles 1+ via delta reuse; the warm pass replays the identical
 * series against a populated store and compiles nothing. The two
 * benches print as adjacent columns: the gap is the store's win.
 */
std::vector<circuit::Circuit>
replayCircuits()
{
    std::vector<circuit::Circuit> circuits;
    circuits.reserve(30);
    for (int i = 0; i < 30; ++i) {
        const int n = 4 + (i % 6);
        circuits.push_back(i % 2 == 0
                               ? workloads::bernsteinVazirani(n)
                               : workloads::qft(n));
    }
    return circuits;
}

std::vector<calibration::Snapshot>
driftSeries(std::size_t cycles)
{
    calibration::SyntheticSource source(
        env().machine, calibration::SyntheticParams{},
        bench::kArchiveSeed);
    std::vector<calibration::Snapshot> series;
    series.push_back(source.nextCycle());
    for (std::size_t c = 1; c < cycles; ++c) {
        calibration::Snapshot next = series.back();
        // Recalibration touched one qubit; everything else held.
        const int q =
            static_cast<int>(c) % env().machine.numQubits();
        next.qubit(q).t1Us *= 0.95;
        next.qubit(q).readoutError *= 1.05;
        series.push_back(next);
    }
    return series;
}

double
replaySeries(core::BatchCompiler &compiler,
             const std::vector<circuit::Circuit> &circuits,
             const std::vector<calibration::Snapshot> &series)
{
    double jobs = 0.0;
    for (const auto &snapshot : series) {
        const auto results =
            compiler.compileAll(circuits, {snapshot});
        jobs += static_cast<double>(results.size());
        benchmark::DoNotOptimize(results);
    }
    return jobs;
}

void
BM_SeriesReplayColdStore(benchmark::State &state)
{
    const auto circuits = replayCircuits();
    const auto series = driftSeries(4);
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    double jobs = 0.0;
    std::uint64_t compiles = 0, delta = 0;
    for (auto _ : state) {
        // A fresh memory-only store per pass: every pass pays the
        // cold compiles, then rides delta reuse across cycles.
        store::ArtifactStore artifacts(store::StoreOptions{});
        store::ArtifactCacheAdapter cache(
            artifacts, env().machine, {.name = "vqm"});
        core::BatchOptions options;
        options.scoreResults = false;
        options.artifactCache = &cache;
        core::BatchCompiler compiler(mapper, env().machine,
                                     options);
        jobs += replaySeries(compiler, circuits, series);
        compiles += artifacts.stats().misses;
        delta += artifacts.stats().deltaReuse;
    }
    state.counters["jobs_per_s"] =
        benchmark::Counter(jobs, benchmark::Counter::kIsRate);
    state.counters["compiles"] = static_cast<double>(compiles) /
                                 static_cast<double>(
                                     state.iterations());
    state.counters["delta_reuse"] =
        static_cast<double>(delta) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_SeriesReplayColdStore)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void
BM_SeriesReplayWarmStore(benchmark::State &state)
{
    const auto circuits = replayCircuits();
    const auto series = driftSeries(4);
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    store::ArtifactStore artifacts(store::StoreOptions{});
    store::ArtifactCacheAdapter cache(artifacts, env().machine,
                                      {.name = "vqm"});
    core::BatchOptions options;
    options.scoreResults = false;
    options.artifactCache = &cache;
    core::BatchCompiler compiler(mapper, env().machine, options);
    // Prime: one full pass populates the store for every cycle.
    replaySeries(compiler, circuits, series);
    double jobs = 0.0;
    for (auto _ : state)
        jobs += replaySeries(compiler, circuits, series);
    state.counters["jobs_per_s"] =
        benchmark::Counter(jobs, benchmark::Counter::kIsRate);
    state.counters["store_hits"] = static_cast<double>(
        artifacts.stats().exactHits + artifacts.stats().deltaReuse);
}
BENCHMARK(BM_SeriesReplayWarmStore)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Compile-then-simulate throughput on the compiled artifact, so the
 * benchmark JSON carries a trials/sec figure next to the compile
 * rates above (the runtime's job loop does both per job).
 */
void
BM_CompiledCircuitTrialRate(benchmark::State &state)
{
    const auto bv = workloads::bernsteinVazirani(16);
    const auto mapped = core::makeMapper({.name = "vqa+vqm"})
                            .map(bv, env().machine, env().averaged);
    const sim::NoiseModel model(env().machine, env().averaged);
    sim::ParallelFaultSim engine;
    sim::ParallelFaultSimOptions options;
    options.trials = 200000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.run(mapped.physical, model, options));
    }
    state.counters["trials_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(options.trials),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompiledCircuitTrialRate)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

/** The Table 1 suite mapped with vqa+vqm, as circuits and as QASM. */
struct MappedSuite
{
    std::vector<circuit::Circuit> circuits;
    std::vector<std::string> texts;
    std::size_t bytes = 0;
};

const MappedSuite &
mappedSuite()
{
    static const MappedSuite suite = [] {
        MappedSuite out;
        const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
        for (const auto &w : workloads::standardSuite(env().machine)) {
            out.circuits.push_back(
                mapper.map(w.circuit, env().machine, env().averaged)
                    .physical);
            out.texts.push_back(circuit::toQasm(out.circuits.back()));
            out.bytes += out.texts.back().size();
        }
        return out;
    }();
    return suite;
}

/** The wire codec: parse every mapped Table 1 program once. */
void
BM_QasmParse(benchmark::State &state)
{
    const MappedSuite &suite = mappedSuite();
    for (auto _ : state) {
        for (const std::string &text : suite.texts)
            benchmark::DoNotOptimize(circuit::parseQasm(text));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * suite.bytes));
}
BENCHMARK(BM_QasmParse);

/** The wire codec: render every mapped Table 1 program once. */
void
BM_QasmWrite(benchmark::State &state)
{
    const MappedSuite &suite = mappedSuite();
    for (auto _ : state) {
        for (const circuit::Circuit &c : suite.circuits)
            benchmark::DoNotOptimize(circuit::toQasm(c));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * suite.bytes));
}
BENCHMARK(BM_QasmWrite);

void
BM_StrongestSubgraph(benchmark::State &state)
{
    std::vector<graph::WeightedEdge> edges;
    for (std::size_t l = 0; l < env().machine.linkCount(); ++l) {
        const auto &link = env().machine.links()[l];
        edges.push_back(graph::WeightedEdge{
            link.a, link.b,
            1.0 - env().averaged.linkError(l)});
    }
    const graph::WeightedGraph strength(
        env().machine.numQubits(), edges);
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::bestConnectedSubgraph(
            strength, static_cast<std::size_t>(state.range(0)),
            graph::SubgraphScore::InducedWeight));
    }
}
BENCHMARK(BM_StrongestSubgraph)->Arg(4)->Arg(8)->Arg(10)->Unit(
    benchmark::kMillisecond);

} // namespace

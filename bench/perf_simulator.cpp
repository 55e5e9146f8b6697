/**
 * @file
 * google-benchmark timing of the evaluation infrastructure: the
 * Monte-Carlo fault injector (the paper runs 1M trials per
 * workload), the dense state-vector simulator, and the trajectory
 * (hardware-surrogate) simulator.
 */
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "calibration/schedule.hpp"
#include "sim/density_matrix.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/statevector.hpp"
#include "sim/trajectory_sim.hpp"
#include "topology/layouts.hpp"
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

const core::MappedCircuit &
mappedBv16()
{
    static const core::MappedCircuit instance =
        core::makeMapper({.name = "baseline"}).map(
            workloads::bernsteinVazirani(16), env().machine,
            env().averaged);
    return instance;
}

// The parallel trial engine on a 1M-trial workload, swept over
// worker counts; the {1000000, 1} arm is the single-thread
// reference for the speedup. Real time is the relevant axis.
void
BM_ParallelFaultInjection(benchmark::State &state)
{
    const sim::NoiseModel model(env().machine, env().averaged);
    sim::ParallelFaultSim engine(
        static_cast<std::size_t>(state.range(1)));
    sim::ParallelFaultSimOptions options;
    options.trials = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.run(mappedBv16().physical, model, options));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_ParallelFaultInjection)
    ->Args({1000000, 1})
    ->Args({1000000, 2})
    ->Args({1000000, 4})
    ->Args({1000000, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Adaptive precision: stop as soon as the error bar is small enough
// instead of burning the whole 1M-trial budget.
void
BM_AdaptiveFaultInjection(benchmark::State &state)
{
    const sim::NoiseModel model(env().machine, env().averaged);
    sim::ParallelFaultSim engine(
        static_cast<std::size_t>(state.range(0)));
    sim::ParallelFaultSimOptions options;
    options.trials = 1000000;
    options.targetStderr = 1e-3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.run(mappedBv16().physical, model, options));
    }
}
BENCHMARK(BM_AdaptiveFaultInjection)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Many-circuit sweep through the batch API (the fig12/fig13-style
// driver pattern): one pool amortized across the whole suite.
void
BM_FaultInjectionBatch(benchmark::State &state)
{
    const sim::NoiseModel model(env().machine, env().averaged);
    static const std::vector<circuit::Circuit> suite = [] {
        std::vector<circuit::Circuit> circuits;
        const auto mapper = core::makeMapper({.name = "baseline"});
        for (const auto &w :
             workloads::standardSuite(env().machine)) {
            circuits.push_back(
                mapper.map(w.circuit, env().machine,
                           env().averaged)
                    .physical);
        }
        return circuits;
    }();
    sim::ParallelFaultSim engine(
        static_cast<std::size_t>(state.range(0)));
    sim::ParallelFaultSimOptions options;
    options.trials = 100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.runBatch(suite, model, options));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(suite.size()) * 100000);
}
BENCHMARK(BM_FaultInjectionBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_AnalyticPst(benchmark::State &state)
{
    const sim::NoiseModel model(env().machine, env().averaged);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::analyticPst(mappedBv16().physical, model));
    }
}
BENCHMARK(BM_AnalyticPst);

void
BM_StateVectorQft(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const auto qft = workloads::qft(n);
    for (auto _ : state) {
        sim::StateVector sv(n);
        sv.applyUnitaries(qft);
        benchmark::DoNotOptimize(sv.norm());
    }
}
BENCHMARK(BM_StateVectorQft)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_StateVectorGate(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::StateVector sv(n);
    const auto h =
        circuit::Gate::oneQubit(circuit::GateKind::H, n / 2);
    for (auto _ : state) {
        sv.apply(h);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StateVectorGate)->Arg(10)->Arg(16)->Arg(20);

void
BM_TrajectoryShots(benchmark::State &state)
{
    const auto q5 = topology::ibmQ5Tenerife();
    calibration::SyntheticSource source(
        q5, calibration::SyntheticParams{}, 5);
    const auto snap = source.nextCycle();
    const sim::NoiseModel model(q5, snap);
    const auto mapped = core::makeMapper({.name = "baseline"}).map(
        workloads::bernsteinVazirani(4), q5, snap);
    sim::TrajectoryOptions options;
    options.shots = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::TrajectorySimulator machine(model, options);
        benchmark::DoNotOptimize(machine.run(mapped.physical));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_TrajectoryShots)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void
BM_DensityMatrixNoisy(benchmark::State &state)
{
    const auto q5 = topology::ibmQ5Tenerife();
    calibration::SyntheticSource source(
        q5, calibration::SyntheticParams{}, 6);
    const auto snap = source.nextCycle();
    const sim::NoiseModel model(q5, snap);
    const auto mapped = core::makeMapper({.name = "baseline"}).map(
        workloads::bernsteinVazirani(4), q5, snap);
    for (auto _ : state) {
        sim::DensityMatrix rho(5);
        rho.runNoisy(mapped.physical, model);
        benchmark::DoNotOptimize(rho.trace());
    }
}
BENCHMARK(BM_DensityMatrixNoisy)->Unit(benchmark::kMillisecond);

void
BM_ScheduleCircuit(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(calibration::scheduleAsap(
            mappedBv16().physical, env().averaged.durations));
    }
}
BENCHMARK(BM_ScheduleCircuit);

} // namespace

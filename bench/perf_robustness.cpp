/**
 * @file
 * google-benchmark timing of the fault-isolation layer: batch
 * throughput with ~5% of jobs hitting an injected compile fault
 * (rescued by the policy-degradation ladder) versus a clean batch,
 * and the calibration quarantine's per-snapshot cost. The headline
 * number is how much a few faulty jobs tax the healthy ones.
 */
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "calibration/sanitize.hpp"
#include "core/allocator.hpp"
#include "core/batch_compiler.hpp"
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

/** Throws for programs of exactly `trigger_qubits` qubits, so the
 *  injected fault rate is a property of the job list. */
class FaultyAllocator final : public core::Allocator
{
  public:
    explicit FaultyAllocator(int trigger_qubits)
        : _trigger(trigger_qubits)
    {}

    core::Layout allocate(
        const circuit::Circuit &logical,
        const core::CalibrationContext &context) const override
    {
        if (logical.numQubits() == _trigger)
            throw CompileError("injected bench fault");
        return _inner.allocate(logical, context);
    }

    std::string name() const override { return "faulty"; }

  private:
    core::LocalityAllocator _inner;
    int _trigger;
};

constexpr int kTriggerQubits = 7;

/** 100 programs; every 20th (5%) has the trigger qubit count. */
std::vector<circuit::Circuit>
batchCircuits(bool with_faults)
{
    std::vector<circuit::Circuit> circuits;
    circuits.reserve(100);
    for (int i = 0; i < 100; ++i) {
        int n = 4 + (i % 3); // 4..6, never the trigger
        if (with_faults && i % 20 == 0)
            n = kTriggerQubits;
        circuits.push_back(i % 2 == 0
                               ? workloads::bernsteinVazirani(n)
                               : workloads::qft(n));
    }
    return circuits;
}

void
runBatchBench(benchmark::State &state, bool with_faults)
{
    const auto circuits = batchCircuits(with_faults);
    const core::Mapper mapper(
        "faulty", std::make_unique<FaultyAllocator>(kTriggerQubits),
        core::CostKind::SwapCount);
    core::BatchOptions options;
    options.compile.cacheEnabled = true;
    options.compile.threads = 0; // all cores
    options.scoreResults = false;
    core::BatchCompiler compiler(mapper, env().machine, options);
    std::size_t rescued = 0;
    for (auto _ : state) {
        const auto results =
            compiler.compileAll(circuits, {env().averaged});
        for (const auto &r : results) {
            if (r.status == core::JobStatus::Degraded)
                ++rescued;
        }
        benchmark::DoNotOptimize(results);
    }
    state.counters["jobs_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(circuits.size()),
        benchmark::Counter::kIsRate);
    state.counters["rescued_per_batch"] =
        state.iterations() > 0
            ? static_cast<double>(rescued) /
                  static_cast<double>(state.iterations())
            : 0.0;
}

void
BM_BatchCompileClean100(benchmark::State &state)
{
    runBatchBench(state, false);
}
// Real time + process CPU: the work happens on pool threads, so
// main-thread CPU time alone would make the rate meaningless.
BENCHMARK(BM_BatchCompileClean100)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void
BM_BatchCompile5PctFaulty100(benchmark::State &state)
{
    runBatchBench(state, true);
}
BENCHMARK(BM_BatchCompile5PctFaulty100)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

/** The quarantine pass itself: sanitize a snapshot with one dead
 *  qubit (worst common case: BFS over the full machine). */
void
BM_SanitizeSnapshot(benchmark::State &state)
{
    calibration::Snapshot poisoned = env().averaged;
    poisoned.qubit(3).t1Us =
        std::numeric_limits<double>::quiet_NaN();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            calibration::sanitize(poisoned, env().machine));
    }
}
BENCHMARK(BM_SanitizeSnapshot);

} // namespace

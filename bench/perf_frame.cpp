/**
 * @file
 * Trials-per-second comparison of the dense trajectory engine and
 * the Pauli-frame fast path on Clifford-dominated Monte-Carlo
 * fault-injection workloads, at widths 5 / 16 / 20 / 27.
 *
 * Read `items_per_second` across the two families: the frame path
 * must beat the dense engine by >= 50x at Falcon-27 scale (the
 * dense engine moves a 2 GiB state per trial there, the frame
 * engine two machine words per qubit). The dense-27 bench is pinned
 * to a handful of trials and one iteration so the comparison stays
 * runnable on a laptop.
 *
 * BM_FrameReference times PauliFrameSim construction alone — the
 * stabilizer tableau plus the sparse ideal reference — on the same
 * workloads and on mapped BV-19 on IBM-Q20, whose intermediate
 * support (2^19 states) is the sparse replay's worst case.
 * BM_DenseIdealMappedBv19 is the 2^20-amplitude dense run of that
 * circuit, the cost the sparse replay must stay below.
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>

#include "calibration/synthetic.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "sim/noise_model.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/pauli_frame.hpp"
#include "sim/statevector.hpp"
#include "topology/coupling_graph.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace
{

using namespace vaq;

topology::CouplingGraph
graphFor(int width)
{
    switch (width) {
      case 5:
        return topology::ibmQ5Tenerife();
      case 16:
        return topology::grid(4, 4);
      case 20:
        return topology::ibmQ20Tokyo();
      default:
        return topology::ibmFalcon27();
    }
}

/**
 * Machine-respecting Clifford-dominated workload, generated in
 * physical form (two-qubit gates across coupling links only). The
 * H count is capped so the ideal accept set stays a small affine
 * subspace and the outcome-checked engines accept the circuit at
 * every width.
 */
circuit::Circuit
cliffordWorkload(const topology::CouplingGraph &graph, int num_gates)
{
    constexpr int kMaxH = 3;
    Rng rng(0x5eed);
    const int n = graph.numQubits();
    circuit::Circuit c(n);
    int hUsed = 0;
    for (int i = 0; i < num_gates; ++i) {
        if (rng.uniformInt(10) >= 6) {
            const auto &link = graph.links()[rng.uniformInt(
                static_cast<std::uint64_t>(graph.linkCount()))];
            const bool flip = rng.uniformInt(2) == 1;
            const auto a = static_cast<circuit::Qubit>(
                flip ? link.b : link.a);
            const auto b = static_cast<circuit::Qubit>(
                flip ? link.a : link.b);
            switch (rng.uniformInt(3)) {
              case 0: c.cx(a, b); break;
              case 1: c.cz(a, b); break;
              default: c.swap(a, b); break;
            }
        } else {
            const auto q = static_cast<circuit::Qubit>(
                rng.uniformInt(static_cast<std::uint64_t>(n)));
            switch (rng.uniformInt(6)) {
              case 0:
                if (hUsed < kMaxH) {
                    c.h(q);
                    ++hUsed;
                } else {
                    c.s(q);
                }
                break;
              case 1: c.s(q); break;
              case 2: c.sdg(q); break;
              case 3: c.x(q); break;
              case 4: c.y(q); break;
              default: c.z(q); break;
            }
        }
    }
    c.measureAll();
    return c;
}

/** One machine + workload per width; NoiseModel holds references,
 *  so each environment is built once and never moved. */
struct FrameEnv
{
    topology::CouplingGraph graph;
    calibration::Snapshot snapshot;
    sim::NoiseModel model;
    circuit::Circuit circuit;

    explicit FrameEnv(int width)
        : graph(graphFor(width)),
          snapshot(calibration::SyntheticSource(
                       graph, calibration::SyntheticParams{}, 11)
                       .nextCycle()),
          model(graph, snapshot),
          circuit(cliffordWorkload(graph, width * 8))
    {
    }
};

const FrameEnv &
envFor(int width)
{
    static std::map<int, FrameEnv> envs;
    auto it = envs.find(width);
    if (it == envs.end())
        it = envs.try_emplace(width, width).first;
    return it->second;
}

void
runEngine(benchmark::State &state, sim::SimEngine engine,
          std::size_t trials)
{
    const FrameEnv &env = envFor(static_cast<int>(state.range(0)));
    sim::OutcomeSimOptions options;
    options.trials = trials;
    options.engine = engine;
    sim::ParallelFaultSim sim(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.runOutcomeChecked(env.circuit, env.model, options));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trials));
}

void
BM_DenseTrials(benchmark::State &state)
{
    runEngine(state, sim::SimEngine::Dense, 512);
}
BENCHMARK(BM_DenseTrials)
    ->Arg(5)
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

// The 27-qubit dense data point exists only to anchor the >= 50x
// claim: a single iteration of a few trials, each hauling a 2 GiB
// state through the full gate stream.
void
BM_DenseTrialsFalcon27(benchmark::State &state)
{
    runEngine(state, sim::SimEngine::Dense, 4);
}
BENCHMARK(BM_DenseTrialsFalcon27)
    ->Arg(27)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void
BM_FrameTrials(benchmark::State &state)
{
    runEngine(state, sim::SimEngine::PauliFrame, 16384);
}
BENCHMARK(BM_FrameTrials)
    ->Arg(5)
    ->Arg(16)
    ->Arg(20)
    ->Arg(27)
    ->Unit(benchmark::kMillisecond);

void
BM_FrameReference(benchmark::State &state)
{
    const FrameEnv &env = envFor(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::PauliFrameSim(env.circuit, env.model));
}
BENCHMARK(BM_FrameReference)
    ->Arg(5)
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

/** BV-19 mapped onto IBM-Q20 by vqa+vqm, with its noise model. */
struct MappedBv19
{
    topology::CouplingGraph graph = topology::ibmQ20Tokyo();
    calibration::Snapshot snapshot =
        calibration::SyntheticSource(graph,
                                     calibration::SyntheticParams{}, 11)
            .nextCycle();
    sim::NoiseModel model{graph, snapshot};
    circuit::Circuit circuit =
        core::makeMapper({.name = "vqa+vqm"})
            .map(workloads::bernsteinVazirani(19), graph, snapshot)
            .physical;
};

const MappedBv19 &
mappedBv19()
{
    static const MappedBv19 env;
    return env;
}

void
BM_FrameReferenceMappedBv19(benchmark::State &state)
{
    const MappedBv19 &env = mappedBv19();
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::PauliFrameSim(env.circuit, env.model));
}
BENCHMARK(BM_FrameReferenceMappedBv19)->Unit(benchmark::kMillisecond);

void
BM_DenseIdealMappedBv19(benchmark::State &state)
{
    const MappedBv19 &env = mappedBv19();
    for (auto _ : state) {
        sim::StateVector ideal(env.circuit.numQubits());
        ideal.applyUnitaries(env.circuit);
        benchmark::DoNotOptimize(ideal.probability(0));
    }
}
BENCHMARK(BM_DenseIdealMappedBv19)->Unit(benchmark::kMillisecond);

} // namespace

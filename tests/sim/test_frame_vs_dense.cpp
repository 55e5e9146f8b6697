/**
 * @file
 * Cross-validation harness: the Pauli-frame fast path against the
 * dense trajectory engine.
 *
 * The contract has three tiers, each asserted here:
 *  - per-trial *bit-exact* agreement at matched seeds whenever the
 *    frame path uses the dense-amplitude reference (both engines
 *    consume the same NoiseScript stream and the frame path replays
 *    the dense sampler's float walk);
 *  - statistical (Wilson-interval) agreement when the frame path is
 *    forced onto the stabilizer-tableau reference, whose per-trial
 *    draws map differently onto outcomes;
 *  - exact fallback equivalence on non-Clifford circuits, where the
 *    frame engine *is* the dense engine.
 * The outcome-checked parallel runs on both engines must in
 * addition be bit-identical across thread counts (this file runs
 * under the sanitizer `parallel` leg).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "clifford_corpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "sim/noise_model.hpp"
#include "sim/noise_script.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/pauli_frame.hpp"
#include "sim/trajectory_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;

/** Wilson score interval of a binomial proportion. */
struct Interval
{
    double lo = 0.0;
    double hi = 1.0;
};

Interval
wilson(std::size_t successes, std::size_t trials, double z)
{
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z *
        std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) /
        denom;
    return {center - half, center + half};
}

bool
overlaps(const Interval &a, const Interval &b)
{
    return a.lo <= b.hi && b.lo <= a.hi;
}

/**
 * Assert per-trial bit-exact agreement between the frame fast path
 * and the dense engine over `trials` matched-seed trials.
 */
void
expectBitExact(const Circuit &physical, const NoiseModel &model,
               const TrajectoryOptions &trajectory,
               std::size_t trials)
{
    PauliFrameOptions options;
    options.trajectory = trajectory;
    const PauliFrameSim sim(physical, model, options);
    ASSERT_TRUE(sim.framePath()) << sim.fallbackReason();
    ASSERT_EQ(sim.reference(), FrameReference::DenseAmplitudes)
        << "bit-exactness only holds on the dense reference";

    const NoiseScript script =
        NoiseScript::compile(physical, model, trajectory);
    Rng frameRng(trajectory.seed);
    Rng denseRng(trajectory.seed);
    for (std::size_t t = 0; t < trials; ++t) {
        const std::uint64_t frameOutcome = sim.runShot(frameRng);
        const std::uint64_t denseOutcome =
            denseTrajectoryShot(physical, script, denseRng);
        ASSERT_EQ(frameOutcome, denseOutcome) << "trial " << t;
    }
}

TEST(FrameVsDense, BitExactPerTrialOnCliffordWorkloads)
{
    TrajectoryOptions trajectory;
    trajectory.seed = 101;
    {
        const auto graph = topology::fullyConnected(5);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        expectBitExact(workloads::ghz(5), model, trajectory, 3000);
        expectBitExact(workloads::bernsteinVazirani(5), model,
                       trajectory, 3000);
        expectBitExact(
            workloads::deutschJozsa(5, true, 0b0101), model,
            trajectory, 3000);
    }
    {
        const auto graph = topology::fullyConnected(3);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        expectBitExact(workloads::triSwap(), model, trajectory,
                       3000);
    }
    {
        // A mapped program on a 20-qubit machine: its dense-amplitude
        // reference comes from a sparse replay whose intermediate
        // support reaches 2^16. Each dense trial moves 2^20
        // amplitudes through every gate, hence the short run.
        const auto q20 = topology::ibmQ20Tokyo();
        const auto snap = test::uniformSnapshot(q20);
        const NoiseModel model(q20, snap);
        const Circuit bv = core::makeMapper({.name = "vqa+vqm"})
                               .map(workloads::bernsteinVazirani(16),
                                    q20, snap)
                               .physical;
        expectBitExact(bv, model, trajectory, 12);
    }
}

TEST(FrameVsDense, BitExactPerTrialOnRandomCorpus)
{
    const std::vector<topology::CouplingGraph> machines = {
        topology::ibmQ5Tenerife(), topology::grid(3, 4)};
    for (const auto &graph : machines) {
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            Rng corpusRng(seed);
            const Circuit c =
                test::randomCliffordCircuit(graph, 80, corpusRng);
            TrajectoryOptions trajectory;
            trajectory.seed = 1000 + seed;
            expectBitExact(c, model, trajectory, 1200);
        }
    }
}

TEST(FrameVsDense, BitExactWithCrosstalkAndNoReadout)
{
    // Crosstalk adds spectator Bernoulli draws per two-qubit gate;
    // readoutNoise=false removes the trailing per-qubit draws. The
    // stream contract must hold under both toggles.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(9);
    const Circuit c =
        test::randomCliffordCircuit(graph, 60, corpusRng);

    TrajectoryOptions trajectory;
    trajectory.seed = 77;
    trajectory.crosstalk = 0.5;
    expectBitExact(c, model, trajectory, 1500);

    trajectory.crosstalk = 0.0;
    trajectory.readoutNoise = false;
    expectBitExact(c, model, trajectory, 1500);
}

/** IBM-Q20's first `width` qubits and the links among them: a
 *  circuit drawn on it is executable on the full machine. */
topology::CouplingGraph
q20Prefix(int width)
{
    const auto q20 = topology::ibmQ20Tokyo();
    std::vector<topology::Link> links;
    for (const topology::Link &link : q20.links()) {
        if (link.a < width && link.b < width)
            links.push_back(link);
    }
    return topology::CouplingGraph("ibm-q20-prefix", width, links);
}

TEST(FrameVsDense, BitExactOnQ20WithPhaseGates)
{
    // Random H/S/Sdg/Pauli/CX/CZ/SWAP circuits on IBM-Q20's first 12
    // qubits, run under the full machine's noise model (crosstalk
    // spectators beyond the circuit's width are skipped).
    const auto q20 = topology::ibmQ20Tokyo();
    Rng calRng(20);
    const auto snap = test::randomSnapshot(q20, calRng);
    const NoiseModel model(q20, snap);
    const auto prefix = q20Prefix(12);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng corpusRng(200 + seed);
        const Circuit c =
            test::randomCliffordCircuit(prefix, 90, corpusRng, 8);
        std::size_t h = 0, s = 0, sdg = 0;
        for (const circuit::Gate &g : c.gates()) {
            h += g.kind == circuit::GateKind::H ? 1 : 0;
            s += g.kind == circuit::GateKind::S ? 1 : 0;
            sdg += g.kind == circuit::GateKind::Sdg ? 1 : 0;
        }
        ASSERT_GT(h, 0u);
        ASSERT_GT(s, 0u);
        ASSERT_GT(sdg, 0u);
        TrajectoryOptions trajectory;
        trajectory.seed = 300 + seed;
        trajectory.crosstalk = seed == 2 ? 0.5 : 0.0;
        expectBitExact(c, model, trajectory, 300);
    }
}

TEST(FrameVsDense, BitExactOnFullDenseSupport)
{
    // H on 12 of 14 qubits, then only permutations and phases: the
    // ideal support is 2^12 states, exactly kMaxDenseSupport, so every
    // trial walks a 4096-entry reference in frame-shifted order.
    const int n = 14;
    const auto graph = topology::fullyConnected(n);
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Circuit c(n);
    for (int q = 0; q < 12; ++q)
        c.h(static_cast<circuit::Qubit>(q));
    Rng gateRng(1414);
    for (int i = 0; i < 60; ++i) {
        const auto a = static_cast<circuit::Qubit>(gateRng.uniformInt(
            static_cast<std::uint64_t>(n)));
        const auto b = static_cast<circuit::Qubit>(
            (a + 1 + gateRng.uniformInt(std::uint64_t{n - 1})) % n);
        switch (gateRng.uniformInt(6)) {
          case 0: c.cx(a, b); break;
          case 1: c.cz(a, b); break;
          case 2: c.swap(a, b); break;
          case 3: c.s(a); break;
          case 4: c.sdg(a); break;
          default: c.x(a); break;
        }
    }
    c.measureAll();

    PauliFrameOptions options;
    const PauliFrameSim sim(c, model, options);
    ASSERT_EQ(sim.idealSupport().dimension(), 12u);
    ASSERT_EQ(sim.reference(), FrameReference::DenseAmplitudes);

    TrajectoryOptions trajectory;
    trajectory.seed = 1212;
    expectBitExact(c, model, trajectory, 200);
}

TEST(FrameVsDense, TableauReferenceAgreesWithinWilsonInterval)
{
    // Forcing denseReferenceMaxQubits to 0 pushes the frame path
    // onto the stabilizer-tableau reference even at widths where a
    // dense reference exists, so the two samplers can be compared:
    // outcomes differ per trial (different draw-to-outcome maps) but
    // the PST estimates must agree statistically.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(13);
    const Circuit c =
        test::randomCliffordCircuit(graph, 60, corpusRng, 4);

    const std::size_t trials = 40'000;
    TrajectoryOptions trajectory;
    trajectory.shots = trials;
    trajectory.seed = 5;

    PauliFrameOptions frameOptions;
    frameOptions.trajectory = trajectory;
    frameOptions.denseReferenceMaxQubits = 0;
    const PauliFrameSim sim(c, model, frameOptions);
    ASSERT_TRUE(sim.framePath());
    ASSERT_EQ(sim.reference(), FrameReference::Tableau);

    const std::vector<std::uint64_t> accept = idealOutcomes(c);
    const double framePst =
        pstFromCounts(sim.run(), accept);

    TrajectorySimulator dense(model, trajectory);
    const double densePst = pstFromCounts(dense.run(c), accept);

    const auto frameSuccesses = static_cast<std::size_t>(
        std::llround(framePst * static_cast<double>(trials)));
    const auto denseSuccesses = static_cast<std::size_t>(
        std::llround(densePst * static_cast<double>(trials)));
    EXPECT_TRUE(overlaps(wilson(frameSuccesses, trials, 4.0),
                         wilson(denseSuccesses, trials, 4.0)))
        << "frame " << framePst << " vs dense " << densePst;
}

TEST(FrameVsDense, FallbackCircuitsMatchDenseEngineBitExactly)
{
    // Non-Clifford programs: the Auto engine must report the dense
    // fallback and produce exactly the dense engine's results —
    // same successes, same trials, same outcome histogram.
    struct Case
    {
        Circuit circuit;
        int width;
    };
    std::vector<Case> cases;
    // GHZ dressed with a T gate: T|0> = |0> exactly, so the ideal
    // accept set stays {0000, 1111}, but the program is non-Clifford
    // and must take the dense fallback. (qft would not work here:
    // its ideal output on |0..0> is uniform, which idealOutcomes
    // rejects as a meaningless accept set.)
    {
        Circuit dressed(4);
        dressed.t(0).h(0).cx(0, 1).cx(1, 2).cx(2, 3).tdg(3);
        dressed.measureAll();
        cases.push_back({dressed, 4});
    }
    cases.push_back({workloads::adder(1, 1, 1), 4});
    for (const Case &fallbackCase : cases) {
        const auto graph =
            topology::fullyConnected(fallbackCase.width);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);

        OutcomeSimOptions options;
        options.trials = 20'000;
        options.chunkTrials = 2048;
        ParallelFaultSim sim(2);

        options.engine = SimEngine::Auto;
        const OutcomeSimResult automatic =
            sim.runOutcomeChecked(fallbackCase.circuit, model,
                                  options);
        EXPECT_FALSE(automatic.framePath);
        EXPECT_NE(
            automatic.fallbackReason.find("non-Clifford"),
            std::string::npos)
            << automatic.fallbackReason;
        EXPECT_GT(automatic.gates.nonClifford, 0u);

        options.engine = SimEngine::Dense;
        const OutcomeSimResult dense = sim.runOutcomeChecked(
            fallbackCase.circuit, model, options);
        EXPECT_TRUE(dense.fallbackReason.empty());

        EXPECT_EQ(automatic.trials, dense.trials);
        EXPECT_EQ(automatic.successes, dense.successes);
        EXPECT_EQ(automatic.counts.counts, dense.counts.counts);
    }
}

TEST(FrameVsDense, EnginesAgreeBitExactlyThroughOutcomeChecked)
{
    // On a Clifford circuit the frame and dense engines must
    // produce identical outcome-checked results — not just equal
    // PST, the full per-outcome histogram.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(21);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 4);

    OutcomeSimOptions options;
    options.trials = 30'000;
    options.chunkTrials = 1024;
    ParallelFaultSim sim;

    options.engine = SimEngine::PauliFrame;
    const OutcomeSimResult frameResult =
        sim.runOutcomeChecked(c, model, options);
    EXPECT_TRUE(frameResult.framePath);

    options.engine = SimEngine::Dense;
    const OutcomeSimResult denseResult =
        sim.runOutcomeChecked(c, model, options);
    EXPECT_FALSE(denseResult.framePath);

    EXPECT_EQ(frameResult.trials, denseResult.trials);
    EXPECT_EQ(frameResult.successes, denseResult.successes);
    EXPECT_EQ(frameResult.counts.counts,
              denseResult.counts.counts);
    EXPECT_DOUBLE_EQ(frameResult.pst, denseResult.pst);
}

TEST(FrameVsDense, OutcomeCheckedBitIdenticalAcrossThreadCounts)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(33);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 4);

    for (const SimEngine engine :
         {SimEngine::PauliFrame, SimEngine::Dense}) {
        OutcomeSimOptions options;
        options.trials = 40'000;
        options.chunkTrials = 1024;
        options.engine = engine;

        const OutcomeSimResult one =
            ParallelFaultSim(1).runOutcomeChecked(c, model,
                                                  options);
        const OutcomeSimResult four =
            ParallelFaultSim(4).runOutcomeChecked(c, model,
                                                  options);
        const OutcomeSimResult eight =
            ParallelFaultSim(8).runOutcomeChecked(c, model,
                                                  options);

        EXPECT_EQ(one.trials, options.trials);
        EXPECT_EQ(one.successes, four.successes);
        EXPECT_EQ(one.successes, eight.successes);
        EXPECT_EQ(one.counts.counts, four.counts.counts);
        EXPECT_EQ(one.counts.counts, eight.counts.counts);
        EXPECT_DOUBLE_EQ(one.pst, eight.pst);
        EXPECT_DOUBLE_EQ(one.stderrPst, eight.stderrPst);
    }
}

TEST(FrameVsDense, OutcomeCheckedHistogramMatchesSerialReplay)
{
    // The chunk histograms are sorted, run-length encoded and merged;
    // the result must equal a plain per-trial tally of the same
    // chunk streams (split from the master seed in chunk order), a
    // ragged last chunk included.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph, 0.1, 0.02, 0.05);
    const NoiseModel model(graph, snap);
    Rng corpusRng(34);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 2);

    OutcomeSimOptions options;
    options.trials = 10'000;
    options.chunkTrials = 768;
    options.engine = SimEngine::PauliFrame;
    const OutcomeSimResult result =
        ParallelFaultSim(3).runOutcomeChecked(c, model, options);

    PauliFrameOptions frameOptions;
    const PauliFrameSim sim(c, model, frameOptions);
    std::map<std::uint64_t, std::size_t> expected;
    Rng master(options.seed);
    for (std::size_t begin = 0; begin < options.trials;
         begin += options.chunkTrials) {
        Rng stream = master.split();
        const std::size_t n =
            std::min(options.chunkTrials, options.trials - begin);
        for (std::size_t t = 0; t < n; ++t)
            ++expected[sim.runShot(stream)];
    }
    EXPECT_GT(expected.size(), 8u);
    EXPECT_EQ(result.counts.counts, expected);
    EXPECT_EQ(result.counts.shots, options.trials);
    EXPECT_EQ(result.counts.measuredMask, sim.measuredMask());
}

TEST(FrameVsDense, AdaptiveStopIsThreadCountInvariant)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(45);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 4);

    OutcomeSimOptions options;
    options.trials = 1'000'000;
    options.chunkTrials = 1000;
    options.targetStderr = 0.004;
    options.engine = SimEngine::PauliFrame;

    const OutcomeSimResult one =
        ParallelFaultSim(1).runOutcomeChecked(c, model, options);
    const OutcomeSimResult eight =
        ParallelFaultSim(8).runOutcomeChecked(c, model, options);
    EXPECT_LT(one.trials, options.trials);
    EXPECT_LE(one.stderrPst, options.targetStderr);
    EXPECT_EQ(one.trials, eight.trials);
    EXPECT_EQ(one.successes, eight.successes);
}

TEST(FrameVsDense, AdaptiveStopPointIsPinned)
{
    // The outcome-checked stopping point on both engines, pinned as
    // numbers (not just agreement across thread counts), so a change
    // to the wave size or the stop rule cannot go unnoticed: both
    // stop after the fifth 8-chunk wave, where a check after every
    // chunk would stop at 17500 trials. The dense case is the
    // T-dressed GHZ of FallbackCircuitsMatchDenseEngineBitExactly,
    // which Auto runs on the dense fallback.
    const auto q5 = topology::ibmQ5Tenerife();
    const auto q5Snap = test::uniformSnapshot(q5);
    const NoiseModel q5Model(q5, q5Snap);
    Rng corpusRng(45);
    const Circuit clifford =
        test::randomCliffordCircuit(q5, 70, corpusRng, 4);

    const auto full = topology::fullyConnected(4);
    const auto fullSnap = test::uniformSnapshot(full);
    const NoiseModel fullModel(full, fullSnap);
    Circuit dressed(4);
    dressed.t(0).h(0).cx(0, 1).cx(1, 2).cx(2, 3).tdg(3);
    dressed.measureAll();

    struct Case
    {
        const Circuit *circuit;
        const NoiseModel *model;
        bool framePath;
        std::size_t trials;
        std::size_t successes;
    };
    const Case cases[] = {
        {&clifford, &q5Model, true, 20'000u, 3'816u},
        {&dressed, &fullModel, false, 20'000u, 16'057u},
    };
    for (const Case &pinned : cases) {
        OutcomeSimOptions options;
        options.trials = 1'000'000;
        options.chunkTrials = 500;
        options.targetStderr = 0.003;
        for (const std::size_t threads : {1, 4}) {
            const OutcomeSimResult result =
                ParallelFaultSim(threads).runOutcomeChecked(
                    *pinned.circuit, *pinned.model, options);
            EXPECT_EQ(result.framePath, pinned.framePath);
            EXPECT_EQ(result.trials, pinned.trials);
            EXPECT_EQ(result.successes, pinned.successes);
            EXPECT_LE(result.stderrPst, options.targetStderr);
        }
    }
}

TEST(FrameVsDense, OneChunkRunsOnTheFirstSplitStream)
{
    // Chunk c draws from the c-th split() of Rng(seed), so a single
    // chunk replays TrajectorySimulator seeded with
    // Rng(seed).nextRaw() (split() seeds its child with one raw
    // word), not with `seed` itself. GHZ-3 dressed with a T gate
    // keeps the run on the dense engine.
    const auto q5 = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(q5);
    const NoiseModel model(q5, snap);
    Circuit logical(3);
    logical.t(0).h(0).cx(0, 1).cx(1, 2);
    logical.measureAll();
    const Circuit physical = core::makeMapper({.name = "baseline"})
                                 .map(logical, q5, snap)
                                 .physical;

    OutcomeSimOptions options;
    options.trials = 4096;
    options.chunkTrials = options.trials;
    options.engine = SimEngine::Dense;
    const OutcomeSimResult parallel =
        ParallelFaultSim(2).runOutcomeChecked(physical, model, options);

    TrajectoryOptions trajectory;
    trajectory.shots = options.trials;
    trajectory.seed = Rng(options.seed).nextRaw();
    const ShotCounts replay =
        TrajectorySimulator(model, trajectory).run(physical);
    EXPECT_EQ(parallel.counts.counts, replay.counts);
    EXPECT_EQ(parallel.counts.measuredMask, replay.measuredMask);

    trajectory.seed = options.seed;
    EXPECT_NE(parallel.counts.counts,
              TrajectorySimulator(model, trajectory).run(physical).counts);
}

TEST(FrameVsDense, OptionsAndContractsValidated)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Circuit measured(5);
    measured.h(0).cx(0, 1).measureAll();

    ParallelFaultSim sim;
    OutcomeSimOptions options;
    options.trials = 0;
    EXPECT_THROW(sim.runOutcomeChecked(measured, model, options),
                 VaqError);
    options.trials = 100;
    options.chunkTrials = 0;
    EXPECT_THROW(sim.runOutcomeChecked(measured, model, options),
                 VaqError);

    // A program measuring nothing has no outcome to check.
    Circuit unmeasured(5);
    unmeasured.h(0).cx(0, 1);
    EXPECT_THROW(sim.runOutcomeChecked(unmeasured, model, {}),
                 VaqError);

    // A uniform accept set (H on every measured qubit) covers the
    // whole outcome space; "success" is meaningless there, on both
    // engines.
    Circuit uniform(5);
    uniform.h(0).h(1).h(2).h(3).h(4).measureAll();
    for (const SimEngine engine :
         {SimEngine::PauliFrame, SimEngine::Dense}) {
        OutcomeSimOptions uniformOptions;
        uniformOptions.engine = engine;
        EXPECT_THROW(
            sim.runOutcomeChecked(uniform, model, uniformOptions),
            VaqError);
    }

    // Explicitly requesting the frame engine on a circuit it cannot
    // run is an error, never a silent downgrade to dense; Auto is
    // the spelling that may fall back.
    Circuit nonClifford(5);
    nonClifford.h(0).t(0).cx(0, 1).measureAll();
    OutcomeSimOptions forced;
    forced.trials = 100;
    forced.engine = SimEngine::PauliFrame;
    EXPECT_THROW(sim.runOutcomeChecked(nonClifford, model, forced),
                 VaqError);
    forced.engine = SimEngine::Auto;
    const OutcomeSimResult fallback =
        sim.runOutcomeChecked(nonClifford, model, forced);
    EXPECT_FALSE(fallback.framePath);
    EXPECT_EQ(fallback.trials, 100u);
}

} // namespace
} // namespace vaq::sim

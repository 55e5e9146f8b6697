/**
 * @file
 * mc-pst: Monte-Carlo PST on circuits mapped during set-up. Each
 * round runs Bernoulli fault injection over the mapped Table 1 suite
 * (ParallelFaultSim::runBatch) and one outcome-checked Pauli-frame
 * run per width 5/16/20/27. No compile is timed, so a mapper change
 * must leave this workload's timed metrics unchanged.
 */
#include <cmath>
#include <memory>
#include <span>

#include "calibration/synthetic.hpp"
#include "core/batch_compiler.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "sim/noise_model.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "topology/layouts.hpp"

namespace vaqbench
{

using namespace vaq;

namespace
{

/** Trials per suite circuit per round (32 chunks, waves of 4). */
constexpr std::size_t kBernoulliTrials = 32 * 16'384;
/** Rounds whose trial successes must repeat exactly per seed. */
constexpr std::size_t kCountedRounds = 2;

struct FrameCase
{
    int width;
    std::size_t trials;
    std::size_t chunkTrials;
    topology::CouplingGraph graph;
    calibration::Snapshot snapshot;
    std::unique_ptr<sim::NoiseModel> model;
    circuit::Circuit circuit = circuit::Circuit(1);

    FrameCase(int w, std::size_t t, std::size_t chunk,
              topology::CouplingGraph g)
        : width(w), trials(t), chunkTrials(chunk), graph(std::move(g)),
          snapshot(graph)
    {}
};

struct Inputs
{
    topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    calibration::Snapshot snapshot{q20};
    std::unique_ptr<sim::NoiseModel> model;
    std::vector<circuit::Circuit> physicals;
    std::vector<std::unique_ptr<FrameCase>> frames;
    std::uint64_t fingerprint = kFingerprintBasis;
};

std::unique_ptr<Inputs>
makeInputs(std::uint64_t seed)
{
    auto in = std::make_unique<Inputs>();
    calibration::SyntheticSource source(in->q20, {}, kMachineSeed);
    in->snapshot = source.nextCycle();
    in->model = std::make_unique<sim::NoiseModel>(in->q20, in->snapshot);

    std::vector<circuit::Circuit> suite;
    for (workloads::Workload &w : workloads::standardSuite(in->q20))
        suite.push_back(std::move(w.circuit));
    const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
    core::BatchOptions options;
    options.compile.threads = kThreads;
    options.compile.telemetryEnabled = false;
    core::BatchCompiler compiler(mapper, in->q20, options);
    for (core::BatchResult &r : compiler.compileAll(suite, {in->snapshot})) {
        if (r.status != core::JobStatus::Ok)
            throw std::runtime_error("set-up mapping failed: " + r.error);
        in->physicals.push_back(std::move(r.mapped.physical));
    }

    Rng rng(seed ^ 0x7f4a7c15d1b54a32ULL);
    const auto add = [&](int width, std::size_t trials, std::size_t chunk,
                         topology::CouplingGraph graph) {
        auto fc = std::make_unique<FrameCase>(width, trials, chunk,
                                              std::move(graph));
        fc->snapshot = calibration::SyntheticSource(fc->graph, {},
                                                    kMachineSeed + width)
                           .nextCycle();
        fc->model =
            std::make_unique<sim::NoiseModel>(fc->graph, fc->snapshot);
        fc->circuit = cliffordCircuit(fc->graph, 8 * width, rng);
        in->fingerprint = fold(in->fingerprint, fc->circuit.contentHash());
        in->frames.push_back(std::move(fc));
    };
    // Widths up to 20 pay a dense ideal-outcome reference per run
    // (about 2 s at width 20), so trial counts differ by width.
    add(5, 16'384, 1'024, topology::ibmQ5Tenerife());
    add(16, 8'192, 512, topology::grid(4, 4));
    add(20, 4'096, 1'024, topology::ibmQ20Tokyo());
    add(27, 65'536, 4'096, topology::ibmFalcon27());
    in->fingerprint = fold(in->fingerprint, in->snapshot.contentHash());
    for (const circuit::Circuit &c : in->physicals)
        in->fingerprint = fold(in->fingerprint, c.contentHash());
    return in;
}

struct Phase
{
    double bernoulliTrials = 0.0;
    double bernoulliSeconds = 0.0;
    std::vector<double> frameTrials;
    std::vector<double> frameSeconds;
    std::vector<double> roundMs;
    std::vector<double> countedPst;
    double successes = 0.0;
    std::size_t fallbacks = 0;
    double opSeconds = 0.0;
};

Phase
measure(const Inputs &in, sim::ParallelFaultSim &engine, double seconds,
        std::uint64_t seed, Tally &tally, SpanLog *spans)
{
    Phase phase;
    phase.frameTrials.assign(in.frames.size(), 0.0);
    phase.frameSeconds.assign(in.frames.size(), 0.0);
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0;
         round < kCountedRounds ||
         secondsBetween(start, Clock::now()) < seconds;
         ++round) {
        const Clock::time_point r0 = Clock::now();
        sim::ParallelFaultSimOptions options;
        options.trials = kBernoulliTrials;
        options.seed = seed * 1'000'003 + round;
        const std::vector<sim::FaultSimResult> results = engine.runBatch(
            std::span<const circuit::Circuit>(in.physicals), *in.model,
            options);
        const Clock::time_point r1 = Clock::now();
        phase.bernoulliSeconds += secondsBetween(r0, r1);
        phase.bernoulliTrials +=
            static_cast<double>(kBernoulliTrials * in.physicals.size());
        std::uint64_t roundSpan = 0;
        std::vector<std::pair<Clock::time_point, Clock::time_point>> ops;
        ops.emplace_back(r0, r1);
        for (const sim::FaultSimResult &r : results) {
            const bool within =
                std::abs(r.pst - r.analyticPst) <= 5.0 * r.stderrPst;
            tally.record(true, within,
                         "Monte-Carlo PST outside 5 stderr of analytic");
            if (round < kCountedRounds) {
                // Smoothed so a zero-success circuit keeps the
                // geometric mean defined.
                phase.countedPst.push_back(
                    (static_cast<double>(r.successes) + 0.5) /
                    (static_cast<double>(r.trials) + 1.0));
                phase.successes += static_cast<double>(r.successes);
            }
        }
        for (std::size_t f = 0; f < in.frames.size(); ++f) {
            const FrameCase &fc = *in.frames[f];
            sim::OutcomeSimOptions oo;
            oo.trials = fc.trials;
            oo.chunkTrials = fc.chunkTrials;
            oo.seed = seed * 1'000'003 + round;
            oo.engine = sim::SimEngine::PauliFrame;
            const Clock::time_point f0 = Clock::now();
            bool ok = true;
            bool frameOk = false;
            try {
                const sim::OutcomeSimResult r =
                    engine.runOutcomeChecked(fc.circuit, *fc.model, oo);
                frameOk = r.framePath && r.fallbackReason.empty();
                if (round < kCountedRounds)
                    phase.successes += static_cast<double>(r.successes);
            } catch (const std::exception &) {
                ok = false;
            }
            const Clock::time_point f1 = Clock::now();
            ops.emplace_back(f0, f1);
            phase.fallbacks += frameOk ? 0 : 1;
            tally.record(ok, frameOk,
                         "frame run w" + std::to_string(fc.width) +
                             " left the Pauli-frame path");
            phase.frameTrials[f] += static_cast<double>(fc.trials);
            phase.frameSeconds[f] += secondsBetween(f0, f1);
        }
        const Clock::time_point r2 = Clock::now();
        phase.roundMs.push_back(secondsBetween(r0, r2) * 1e3);
        for (const auto &[a, b] : ops)
            phase.opSeconds += secondsBetween(a, b);
        if (spans) {
            roundSpan = spans->add("round", "harness", 0, r0, r2);
            spans->add("sim.bernoulli_batch", "sim", roundSpan, ops[0].first,
                       ops[0].second);
            for (std::size_t i = 1; i < ops.size(); ++i) {
                spans->add("sim.frame.w" +
                               std::to_string(in.frames[i - 1]->width),
                           "sim", roundSpan, ops[i].first, ops[i].second);
            }
        }
    }
    return phase;
}

} // namespace

RunResult
runMcPst(const Options &options)
{
    RunResult result;
    std::vector<double> setups;
    std::unique_ptr<Inputs> in;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        in = makeInputs(options.seed);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    sim::ParallelFaultSim engine(kThreads);

    const double untracedSeconds =
        options.trace ? options.seconds / 2 : options.seconds;
    const Phase plain = measure(*in, engine, untracedSeconds, options.seed,
                                result.tally, nullptr);
    const double trialsPerS = plain.bernoulliTrials / plain.bernoulliSeconds;
    std::vector<double> frameRates;
    for (std::size_t f = 0; f < in->frames.size(); ++f)
        frameRates.push_back(plain.frameTrials[f] / plain.frameSeconds[f]);

    result.human = {
        {"trials_per_s", trialsPerS, "1/s"},
        {"frame_trials_per_s", geomean(frameRates), "1/s"},
        {"error_rate", result.tally.errorRate(), "ratio"},
        {"rounds", static_cast<double>(plain.roundMs.size()), "count"},
    };
    for (std::size_t f = 0; f < in->frames.size(); ++f) {
        result.human.push_back(
            {"frame_trials_per_s.w" + std::to_string(in->frames[f]->width),
             frameRates[f], "1/s"});
    }
    if (!options.trace) {
        result.metrics = {
            {"setup_s", percentile(setups, 0.5)},
            {"peak_rss_mb", peakRssMb()},
            {"ok_share", 1.0 - result.tally.errorRate()},
            {"throughput_per_s", trialsPerS},
            {"latency_p50_ms", percentile(plain.roundMs, 0.5)},
            {"geomean_pst", geomean(plain.countedPst)},
        };
        return result;
    }

    obs::setEnabled(true);
    obs::Registry::global().reset();
    SpanLog spans;
    const Phase traced = measure(*in, engine, options.seconds / 2,
                                 options.seed, result.tally, &spans);
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    obs::setEnabled(false);

    Metrics &m = result.metrics;
    const auto chunk = snap.histograms.find("sim.chunk.seconds");
    if (chunk != snap.histograms.end() && chunk->second.count > 0) {
        m["sim.chunk_ms_mean"] = chunk->second.mean * 1e3;
        m["sim.pool_busy_ratio"] =
            chunk->second.sum / (static_cast<double>(kThreads) *
                                 traced.opSeconds);
    }
    std::vector<double> tracedRates;
    for (std::size_t f = 0; f < in->frames.size(); ++f) {
        const double rate = traced.frameTrials[f] / traced.frameSeconds[f];
        tracedRates.push_back(rate);
        m["sim.frame_trials_per_s.w" +
          std::to_string(in->frames[f]->width)] = rate;
    }
    m["sim.frame_trials_per_s"] = geomean(tracedRates);
    m["sim.frame_fallbacks"] = static_cast<double>(traced.fallbacks);
    m["sim.trial_successes"] = traced.successes;
    m["quality.geomean_pst"] = geomean(traced.countedPst);
    m["harness.trace_overhead"] =
        1.0 - (traced.bernoulliTrials / traced.bernoulliSeconds) / trialsPerS;
    m["harness.input_fingerprint"] =
        static_cast<double>(in->fingerprint & ((1ULL << 52) - 1));
    spans.addSelfTimes(m);
    spans.write(options.traceDir + "/mc-pst-seed" +
                std::to_string(options.seed) + ".jsonl");
    return result;
}

} // namespace vaqbench

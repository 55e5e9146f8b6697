#include "sim/parallel_fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <type_traits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/noise_script.hpp"

namespace vaq::sim
{

using circuit::Circuit;

namespace
{

/**
 * Chunks per adaptive wave. A fixed constant (not a function of the
 * thread count) so the adaptive stopping point is identical no
 * matter how many workers execute the wave.
 */
constexpr std::size_t kAdaptiveWaveChunks = 8;

/** Outcome histogram as (outcome, count) runs, ascending outcome. */
using OutcomeRuns = std::vector<std::pair<std::uint64_t, std::size_t>>;

/** Sort a chunk's outcomes and run-length encode them. */
OutcomeRuns
encodeRuns(std::vector<std::uint64_t> &outcomes)
{
    std::sort(outcomes.begin(), outcomes.end());
    OutcomeRuns runs;
    for (std::size_t i = 0; i < outcomes.size();) {
        std::size_t j = i + 1;
        while (j < outcomes.size() && outcomes[j] == outcomes[i])
            ++j;
        runs.push_back({outcomes[i], j - i});
        i = j;
    }
    return runs;
}

/** into := into + runs, both ascending; `scratch` is reused. */
void
mergeRuns(OutcomeRuns &into, const OutcomeRuns &runs,
          OutcomeRuns &scratch)
{
    scratch.clear();
    scratch.reserve(into.size() + runs.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < into.size() || b < runs.size()) {
        if (b == runs.size() ||
            (a < into.size() && into[a].first < runs[b].first)) {
            scratch.push_back(into[a++]);
        } else if (a == into.size() || runs[b].first < into[a].first) {
            scratch.push_back(runs[b++]);
        } else {
            scratch.push_back({into[a].first,
                               into[a].second + runs[b].second});
            ++a;
            ++b;
        }
    }
    into.swap(scratch);
}

/** The option checks both runs make before any setup. */
template <typename Options>
void
checkRun(const Circuit &physical, const NoiseModel &model,
         const Options &options)
{
    require(options.trials > 0, "need at least one trial");
    require(options.chunkTrials > 0, "chunkTrials must be positive");
    require(options.targetStderr >= 0.0,
            "targetStderr must be non-negative");
    checkExecutable(physical, model);
}

/**
 * The chunk loop behind both runs (DESIGN §5b). It shards
 * options.trials into chunks of options.chunkTrials; chunk c draws
 * from the c-th split() of Rng(options.seed), split sequentially in
 * chunk order, so the stream layout is a pure function of (seed,
 * trials, chunkTrials). Each wave of chunks runs `kernel(rng, n)` on
 * the pool, one output slot per chunk, then hands the outputs to
 * `reduce` in chunk order; `reduce` returns the chunk's tally, which
 * runChunks folds into the running total. With targetStderr > 0
 * the waves have a fixed size and the run stops after the first
 * wave whose total meets the target. Nothing depends on which
 * worker ran which chunk, so the result is thread-count invariant.
 */
template <typename Options, typename Kernel, typename Reduce>
detail::TrialTally
runChunks(ThreadPool &pool, const Options &options,
          std::chrono::steady_clock::time_point runStart,
          const Kernel &kernel, const Reduce &reduce)
{
    using Output = std::invoke_result_t<const Kernel &, Rng &,
                                        std::size_t>;
    const bool telemetry = obs::enabled();
    const std::size_t numChunks =
        (options.trials + options.chunkTrials - 1) /
        options.chunkTrials;
    const bool adaptive = options.targetStderr > 0.0;
    const std::size_t waveChunks =
        adaptive ? kAdaptiveWaveChunks : numChunks;

    Rng master(options.seed);
    detail::TrialTally total;
    std::vector<Rng> streams;
    std::vector<Output> outputs;
    for (std::size_t first = 0; first < numChunks;
         first += waveChunks) {
        const std::size_t count =
            std::min(waveChunks, numChunks - first);

        streams.clear();
        streams.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            streams.push_back(master.split());

        outputs.assign(count, Output{});
        pool.parallelFor(count, [&](std::size_t i) {
            obs::ScopedTimer chunkTimer("sim.chunk.seconds",
                                        telemetry);
            const std::size_t begin =
                (first + i) * options.chunkTrials;
            // Draw from a local copy: neighbouring chunks' streams
            // share cache lines, which every draw would write.
            Rng rng = streams[i];
            outputs[i] = kernel(
                rng, std::min(options.chunkTrials, options.trials - begin));
        });

        // Reduce in chunk order — the merge sequence, like the
        // streams, never depends on which worker ran which chunk.
        for (const Output &out : outputs)
            total.merge(reduce(out));

        if (adaptive &&
            detail::pstStandardError(total.successes,
                                     total.trials) <=
                options.targetStderr) {
            break;
        }
    }

    if (telemetry) {
        obs::count("sim.trials.total", total.trials);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - runStart)
                .count();
        if (seconds > 0.0)
            obs::gaugeSet("sim.trials_per_sec",
                          static_cast<double>(total.trials) /
                              seconds);
    }
    return total;
}

} // namespace

ParallelFaultSim::ParallelFaultSim(std::size_t threads)
    : _pool(threads)
{
}

FaultSimResult
ParallelFaultSim::run(const Circuit &physical, const NoiseModel &model,
                      const ParallelFaultSimOptions &options)
{
    checkRun(physical, model, options);
    obs::Span runSpan("sim.run", obs::enabled());
    const auto runStart = std::chrono::steady_clock::now();

    const std::vector<double> probs =
        detail::collectErrorProbs(physical, model);
    const detail::TrialThresholds compiled =
        detail::compileThresholds(probs);

    const detail::TrialTally total = runChunks(
        _pool, options, runStart,
        [&](Rng &rng, std::size_t n) {
            return detail::simulateChunk(compiled, n, rng);
        },
        [](const detail::TrialTally &tally) { return tally; });
    return detail::resultFromTally(
        total, detail::productSuccessProb(probs));
}

OutcomeSimResult
ParallelFaultSim::runOutcomeChecked(const Circuit &physical,
                                    const NoiseModel &model,
                                    const OutcomeSimOptions &options)
{
    checkRun(physical, model, options);
    const bool telemetry = obs::enabled();
    obs::Span runSpan("sim.outcome_run", telemetry);
    const auto runStart = std::chrono::steady_clock::now();

    TrajectoryOptions trajectory;
    trajectory.shots = options.trials;
    trajectory.seed = options.seed;
    trajectory.crosstalk = options.crosstalk;

    OutcomeSimResult result;

    // Engine resolution: Auto/PauliFrame build the frame engine and
    // take its fast path when the circuit qualifies; Dense (and any
    // frame fallback) runs dense trajectory shots off the same
    // NoiseScript stream.
    std::optional<PauliFrameSim> frame;
    if (options.engine != SimEngine::Dense) {
        PauliFrameOptions frameOptions;
        frameOptions.trajectory = trajectory;
        frame.emplace(physical, model, frameOptions);
        result.gates = frame->gateCounts();
        result.framePath = frame->framePath();
        if (!result.framePath) {
            // An explicit frame request must not silently downgrade
            // to the (much slower, differently-scaling) dense path;
            // only Auto is allowed to fall back.
            if (options.engine == SimEngine::PauliFrame) {
                throw VaqError("frame engine requested but circuit "
                               "does not qualify: " +
                               frame->fallbackReason());
            }
            result.fallbackReason = frame->fallbackReason();
        }
    } else {
        result.gates = countCliffordGates(physical);
    }

    const std::uint64_t mask = measuredMaskOf(physical);
    require(mask != 0, "program measures no qubits");

    // Ideal accept set. The frame path reads it off the stabilizer
    // support (projection onto the measured bits is itself affine);
    // the dense path enumerates it densely. Both enforce the same
    // meaningfulness rule: acceptance may cover at most half the
    // outcome space.
    AffineSupport acceptSupport;
    std::vector<std::uint64_t> acceptList;
    if (result.framePath) {
        acceptSupport = frame->idealSupport().masked(mask);
        const int measured = std::popcount(mask);
        require(static_cast<int>(acceptSupport.dimension()) + 1 <=
                        measured ||
                    measured == 1,
                "accept set covers most of the outcome space; "
                "output-checked PST is not meaningful here");
    } else {
        acceptList = idealOutcomes(physical);
    }
    const auto accepts = [&](std::uint64_t outcome) {
        if (result.framePath)
            return acceptSupport.contains(outcome);
        return std::binary_search(acceptList.begin(),
                                  acceptList.end(), outcome);
    };

    NoiseScript denseScript;
    if (!result.framePath)
        denseScript =
            NoiseScript::compile(physical, model, trajectory);

    struct ChunkOutput
    {
        detail::TrialTally tally;
        OutcomeRuns runs;
    };

    OutcomeRuns histogram;
    OutcomeRuns scratch;
    const detail::TrialTally total = runChunks(
        _pool, options, runStart,
        [&](Rng &rng, std::size_t n) {
            ChunkOutput out;
            std::vector<std::uint64_t> outcomes(n);
            for (std::uint64_t &outcome : outcomes) {
                outcome = result.framePath
                              ? frame->runShot(rng)
                              : denseTrajectoryShot(physical,
                                                    denseScript, rng);
                out.tally.successes += accepts(outcome) ? 1 : 0;
            }
            out.tally.trials = n;
            out.runs = encodeRuns(outcomes);
            return out;
        },
        [&](const ChunkOutput &out) {
            mergeRuns(histogram, out.runs, scratch);
            return out.tally;
        });

    result.counts.shots = total.trials;
    result.counts.measuredMask = mask;
    for (const auto &[outcome, n] : histogram)
        result.counts.counts.emplace_hint(result.counts.counts.end(),
                                          outcome, n);
    // run()'s estimate and error bar; no closed form applies here.
    const FaultSimResult estimate = detail::resultFromTally(total, 0.0);
    result.trials = estimate.trials;
    result.successes = estimate.successes;
    result.pst = estimate.pst;
    result.stderrPst = estimate.stderrPst;

    if (telemetry && result.framePath)
        obs::count("sim.frame.trials", total.trials);
    return result;
}

std::vector<FaultSimResult>
ParallelFaultSim::runBatch(std::span<const Circuit> physicals,
                           const NoiseModel &model,
                           const ParallelFaultSimOptions &options)
{
    std::vector<FaultSimResult> results;
    results.reserve(physicals.size());
    for (const Circuit &physical : physicals)
        results.push_back(run(physical, model, options));
    return results;
}

} // namespace vaq::sim

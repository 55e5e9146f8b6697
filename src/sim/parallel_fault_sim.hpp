/**
 * @file
 * Multi-threaded, deterministic Monte-Carlo trial engine.
 *
 * The paper's evaluation runs 1M fault-injection trials per workload
 * (Section 4.3) for every policy/topology/calibration combination, so
 * the simulator — not the compiler — dominates wall-clock when
 * reproducing the figures. This engine shards the trial budget into
 * fixed-size chunks, gives each chunk its own RNG stream derived from
 * the master seed via Rng::split() in chunk order, runs the chunks on
 * a reusable worker pool, and reduces the per-chunk tallies in chunk
 * order. Because the chunk schedule and streams depend only on
 * (seed, trials, chunkTrials), the result — including the
 * early-stopping point of the adaptive mode — is bit-identical for
 * any thread count.
 */
#ifndef VAQ_SIM_PARALLEL_FAULT_SIM_HPP
#define VAQ_SIM_PARALLEL_FAULT_SIM_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/thread_pool.hpp"
#include "sim/fault_sim.hpp"
#include "sim/pauli_frame.hpp"
#include "sim/sim_engine.hpp"
#include "sim/trajectory_sim.hpp"

namespace vaq::sim
{

/** Knobs of the parallel Monte-Carlo fault-injection run. */
struct ParallelFaultSimOptions
{
    std::size_t trials = 1'000'000; ///< paper uses 1M per workload
    std::uint64_t seed = 13;
    /**
     * Trials per chunk — the unit of determinism. Results depend on
     * this value (it defines the RNG stream layout) but never on
     * the thread count.
     */
    std::size_t chunkTrials = 16'384;
    /**
     * Adaptive precision: when > 0, stop as soon as the estimate's
     * stderrPst falls to or below this target. The check runs after
     * every fixed-size wave of chunks (not per thread), so the
     * stopping point is thread-count invariant too. The result's
     * `trials` field reports the trials actually run.
     */
    double targetStderr = 0.0;
};

/**
 * Knobs of an outcome-checked parallel run: full per-trial outcome
 * simulation (Pauli injections, sampling, readout flips) instead of
 * the Bernoulli success/failure abstraction, judged against the
 * program's ideal outcome set. The chunked RNG-stream layout is the
 * same as ParallelFaultSimOptions, so results — per-trial outcomes
 * included — are bit-identical for any thread count.
 */
struct OutcomeSimOptions
{
    std::size_t trials = 100'000;
    /** Defaults to the trajectory engine's seed so a single-threaded
     *  chunk replays TrajectorySimulator streams per chunk. */
    std::uint64_t seed = 29;
    /** Trials per chunk — the unit of determinism (see
     *  ParallelFaultSimOptions::chunkTrials). */
    std::size_t chunkTrials = 4'096;
    /** Adaptive precision target; see ParallelFaultSimOptions. */
    double targetStderr = 0.0;
    /** Which per-trial engine executes the trials. */
    SimEngine engine = SimEngine::Auto;
    /** Flip measured bits with the calibrated readout error. */
    bool readoutNoise = true;
    /** Crosstalk extension (see TrajectoryOptions::crosstalk). */
    double crosstalk = 0.0;
};

/** Outcome of an outcome-checked parallel run. */
struct OutcomeSimResult
{
    std::size_t trials = 0;
    std::size_t successes = 0;
    /** Output-checked PST estimate = successes / trials. */
    double pst = 0.0;
    double stderrPst = 0.0;
    /** True when the Pauli-frame fast path executed the trials. */
    bool framePath = false;
    /** Why dense trials ran although the frame path was allowed
     *  (empty when framePath, or when SimEngine::Dense was
     *  requested). */
    std::string fallbackReason;
    /** Clifford census of the circuit. */
    FrameCounts gates;
    /** Aggregated masked-outcome histogram over every trial run. */
    ShotCounts counts;
};

/**
 * Reusable parallel trial engine: one worker pool, many runs.
 *
 * Not safe for concurrent use from multiple threads; each run()
 * blocks until its trials are reduced.
 */
class ParallelFaultSim
{
  public:
    /** Spawn the pool; 0 = one worker per hardware thread. */
    explicit ParallelFaultSim(std::size_t threads = 0);

    /** Worker threads backing the engine. */
    std::size_t threadCount() const { return _pool.threadCount(); }

    /** Run one Monte-Carlo fault-injection study. */
    FaultSimResult run(const circuit::Circuit &physical,
                       const NoiseModel &model,
                       const ParallelFaultSimOptions &options = {});

    /**
     * Evaluate many circuits against one model, amortizing the pool
     * across the sweep. Each circuit is evaluated exactly as a
     * standalone run() with the same options (same seed), so batch
     * results do not depend on batch composition or order.
     */
    std::vector<FaultSimResult>
    runBatch(std::span<const circuit::Circuit> physicals,
             const NoiseModel &model,
             const ParallelFaultSimOptions &options = {});

    /**
     * Outcome-checked Monte-Carlo run behind the SimEngine seam: a
     * trial simulates the full noisy execution (Pauli-frame fast
     * path for Clifford circuits, dense trajectory otherwise) and
     * succeeds iff its outcome lands in the program's ideal outcome
     * set. Chunk streams, wave structure and adaptive stopping
     * mirror run(), so results are thread-count invariant; with one
     * chunk covering all trials the trial stream is exactly
     * TrajectorySimulator's.
     *
     * @throws VaqError when the circuit measures nothing or its
     *         accept set covers more than half the outcome space
     *         (same contract as idealOutcomes()).
     */
    OutcomeSimResult
    runOutcomeChecked(const circuit::Circuit &physical,
                      const NoiseModel &model,
                      const OutcomeSimOptions &options = {});

  private:
    ThreadPool _pool;
};

} // namespace vaq::sim

#endif // VAQ_SIM_PARALLEL_FAULT_SIM_HPP

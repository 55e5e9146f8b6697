/**
 * @file
 * Monte-Carlo fault-injection simulator — the paper's evaluation
 * infrastructure (Fig. 10, Section 4.3).
 *
 * A trial replays the physical circuit and flips an independent
 * Bernoulli coin per operation with that operation's calibrated
 * error probability. A trial is successful iff no error fires. PST
 * (Probability of a Successful Trial, Section 4.1) is the success
 * fraction over N trials; with independent errors it has the closed
 * form prod(1 - e_i), which analyticPst() computes and the tests use
 * to validate the sampler. The sampler itself is the chunked trial
 * engine in sim/parallel_fault_sim; this header holds the result
 * type, the closed form and the per-chunk building blocks.
 */
#ifndef VAQ_SIM_FAULT_SIM_HPP
#define VAQ_SIM_FAULT_SIM_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"

namespace vaq::sim
{

/** Outcome of a fault-injection run. */
struct FaultSimResult
{
    std::size_t trials = 0;
    std::size_t successes = 0;
    /** Monte-Carlo PST estimate = successes / trials. */
    double pst = 0.0;
    /** Closed-form PST for the same circuit and model. */
    double analyticPst = 0.0;
    /** Standard error of the Monte-Carlo estimate. */
    double stderrPst = 0.0;
};

/**
 * Validate that every two-qubit gate of `physical` acts on a coupled
 * pair of `model.graph()`; throws VaqError otherwise. Mappers must
 * only hand executable circuits to the machine.
 */
void checkExecutable(const circuit::Circuit &physical,
                     const NoiseModel &model);

/**
 * Closed-form PST under independent per-operation errors,
 * including idle decoherence when the model runs in
 * CoherenceMode::Idle.
 */
double analyticPst(const circuit::Circuit &physical,
                   const NoiseModel &model);

/**
 * Building blocks shared by analyticPst() and the parallel trial
 * engine (sim/parallel_fault_sim). Exposed so both reduce the exact
 * same collected probabilities — they cannot drift apart — and so
 * tests can pin the boundary behaviour of the error bar.
 */
namespace detail
{

/**
 * Every independent failure probability a trial is exposed to: one
 * entry per non-barrier operation, plus per-qubit idle entries in
 * CoherenceMode::Idle. Throws VaqError when the model yields a
 * probability outside [0, 1] (corrupt calibration data).
 */
std::vector<double> collectErrorProbs(const circuit::Circuit &physical,
                                      const NoiseModel &model);

/** Closed-form PST: prod(1 - p) over the collected probabilities. */
double productSuccessProb(const std::vector<double> &probs);

/**
 * Standard error of a PST estimate of `successes` out of `trials`.
 * Uses the normal approximation sqrt(p(1-p)/n) away from the
 * boundaries; at p in {0, 1} — where that formula degenerates to a
 * spurious 0 — it reports the Wilson-score (z = 1) half-width,
 * which collapses to 1/(2(n+1)): positive, shrinking like 1/n, in
 * the spirit of the rule of three. Adaptive stopping can therefore
 * never terminate on an all-success or all-failure tally's zero
 * error bar.
 */
double pstStandardError(std::size_t successes, std::size_t trials);

/** Per-chunk Monte-Carlo tally; the unit of parallel reduction. */
struct TrialTally
{
    std::size_t trials = 0;
    std::size_t successes = 0;

    /** Fold another chunk's tally into this one. */
    void merge(const TrialTally &other);
};

/**
 * Collected probabilities compiled for the trial kernel. A trial
 * draws one raw word per threshold, in order, and fails at the first
 * word below its threshold (Rng::bernoulliThreshold): the same coins
 * a loop of Rng::bernoulli(p) flips, on the same words.
 */
struct TrialThresholds
{
    /** BernoulliDraw::compile(p).threshold of each op that draws
     *  a word, up to the first op that fails without one. Ops
     *  with p <= 0 are dropped: bernoulli(0) consumes no draw. */
    std::vector<std::uint64_t> thresholds;
    /** A p >= 1 op ended the list: it fails every trial that
     *  reaches it, without a draw. */
    bool certainFailure = false;
};

/** Compile collectErrorProbs()' vector into kernel thresholds. */
TrialThresholds compileThresholds(const std::vector<double> &probs);

/**
 * Run `trials` Bernoulli-per-operation trials against `compiled`,
 * consuming randomness from `rng`. The trial loop ParallelFaultSim
 * runs once per chunk, on that chunk's split stream.
 */
TrialTally simulateChunk(const TrialThresholds &compiled,
                         std::size_t trials, Rng &rng);

/** Assemble a FaultSimResult from a tally and the closed form. */
FaultSimResult resultFromTally(const TrialTally &tally,
                               double analytic_pst);

} // namespace detail

} // namespace vaq::sim

#endif // VAQ_SIM_FAULT_SIM_HPP

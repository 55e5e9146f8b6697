#include "sim/fault_sim.hpp"

#include <cmath>
#include <string>

#include "calibration/schedule.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace vaq::sim
{

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

void
checkExecutable(const Circuit &physical, const NoiseModel &model)
{
    const topology::CouplingGraph &graph = model.graph();
    require(physical.numQubits() <= graph.numQubits(),
            "circuit wider than machine");
    for (const Gate &g : physical.gates()) {
        if (g.isTwoQubit()) {
            if (!graph.coupled(g.q0, g.q1)) {
                throw VaqError("two-qubit gate on uncoupled pair " +
                               std::to_string(g.q0) + "," +
                               std::to_string(g.q1) +
                               " -- circuit is not routed for " +
                               graph.name());
            }
        }
    }
}

namespace detail
{

namespace
{

/** Reject NaN/inf/out-of-range probabilities from the model;
 *  `qubit` >= 0 names the qubit an idle probability belongs to. */
void
requireProbability(double p, const char *what, int qubit = -1)
{
    if (std::isfinite(p) && p >= 0.0 && p <= 1.0)
        return;
    std::string source = what;
    if (qubit >= 0)
        source += " (qubit " + std::to_string(qubit) + ")";
    throw VaqError("corrupt calibration data: " + source +
                   " error probability " + std::to_string(p) +
                   " is outside [0, 1]");
}

} // namespace

std::vector<double>
collectErrorProbs(const Circuit &physical, const NoiseModel &model)
{
    const bool idleAware = model.mode() == CoherenceMode::Idle;

    std::size_t ops = 0;
    for (const Gate &g : physical.gates()) {
        if (g.kind != GateKind::BARRIER)
            ++ops;
    }

    std::vector<double> probs;
    probs.reserve(ops + (idleAware
                             ? static_cast<std::size_t>(
                                   physical.numQubits())
                             : 0));
    for (const Gate &g : physical.gates()) {
        if (g.kind == GateKind::BARRIER)
            continue;
        const double p = model.totalErrorProb(g);
        requireProbability(p, "per-operation");
        probs.push_back(p);
    }
    if (idleAware) {
        const calibration::GateDurations &durations =
            model.snapshot().durations;
        const calibration::Schedule schedule =
            calibration::scheduleAsap(physical, durations);
        for (int q = 0; q < physical.numQubits(); ++q) {
            const double idle =
                schedule.idleNs(physical, durations, q);
            if (idle > 0.0) {
                const double p = model.idleErrorProb(q, idle);
                requireProbability(p, "idle", q);
                probs.push_back(p);
            }
        }
    }
    return probs;
}

double
productSuccessProb(const std::vector<double> &probs)
{
    double pst = 1.0;
    for (double p : probs)
        pst *= 1.0 - p;
    return pst;
}

double
pstStandardError(std::size_t successes, std::size_t trials)
{
    VAQ_ASSERT(trials > 0, "standard error of an empty sample");
    VAQ_ASSERT(successes <= trials, "more successes than trials");
    const double n = static_cast<double>(trials);
    if (successes == 0 || successes == trials) {
        // Wilson-score half-width at z = 1 evaluated at the
        // boundary: (z/(n+z^2)) * sqrt(s(n-s)/n + z^2/4) = 1/(2(n+1)).
        return 0.5 / (n + 1.0);
    }
    const double p = static_cast<double>(successes) / n;
    return std::sqrt(p * (1.0 - p) / n);
}

void
TrialTally::merge(const TrialTally &other)
{
    trials += other.trials;
    successes += other.successes;
}

TrialThresholds
compileThresholds(const std::vector<double> &probs)
{
    TrialThresholds compiled;
    compiled.thresholds.reserve(probs.size());
    for (double p : probs) {
        const BernoulliDraw draw = BernoulliDraw::compile(p);
        if (draw.mode == BernoulliDraw::Mode::Always) {
            compiled.certainFailure = true;
            break;
        }
        if (draw.mode == BernoulliDraw::Mode::Compare)
            compiled.thresholds.push_back(draw.threshold);
    }
    return compiled;
}

TrialTally
simulateChunk(const TrialThresholds &compiled, std::size_t trials,
              Rng &rng)
{
    // Work on a local copy of the stream so its state can live in
    // registers: the threshold loads are 64-bit words too, and the
    // compiler cannot otherwise prove they do not alias it.
    Rng local = rng;
    const std::uint64_t *const first = compiled.thresholds.data();
    const std::uint64_t *const last =
        first + compiled.thresholds.size();
    std::size_t survivors = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        const std::uint64_t *op = first;
        while (op != last && local.nextRaw() >= *op)
            ++op;
        survivors += op == last ? 1 : 0;
    }
    rng = local;

    TrialTally tally;
    tally.trials = trials;
    tally.successes = compiled.certainFailure ? 0 : survivors;
    return tally;
}

FaultSimResult
resultFromTally(const TrialTally &tally, double analytic_pst)
{
    VAQ_ASSERT(tally.successes <= tally.trials,
               "more successes than trials");
    FaultSimResult result;
    result.trials = tally.trials;
    result.successes = tally.successes;
    result.pst = static_cast<double>(tally.successes) /
                 static_cast<double>(tally.trials);
    result.analyticPst = analytic_pst;
    result.stderrPst =
        pstStandardError(tally.successes, tally.trials);
    return result;
}

} // namespace detail

double
analyticPst(const Circuit &physical, const NoiseModel &model)
{
    checkExecutable(physical, model);
    return detail::productSuccessProb(
        detail::collectErrorProbs(physical, model));
}

} // namespace vaq::sim

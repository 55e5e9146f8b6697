#include "sim/fault_sim.hpp"

#include <cmath>
#include <string>

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
            require(graph.coupled(g.q0, g.q1),
                    "two-qubit gate on uncoupled pair " +
                        std::to_string(g.q0) + "," +
                        std::to_string(g.q1) +
                        " -- circuit is not routed for " +
                        graph.name());
        }
    }
}

namespace detail
{

namespace
{

/** Reject NaN/inf/out-of-range probabilities from the model. */
void
requireProbability(double p, const std::string &what)
{
    require(std::isfinite(p) && p >= 0.0 && p <= 1.0,
            "corrupt calibration data: " + what +
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
        const Schedule schedule = scheduleCircuit(physical, model);
        for (int q = 0; q < physical.numQubits(); ++q) {
            const double idle = schedule.idleNs(physical, q);
            if (idle > 0.0) {
                const double p = model.idleErrorProb(q, idle);
                requireProbability(
                    p, "idle (qubit " + std::to_string(q) + ")");
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
    indicator.merge(other.indicator);
}

TrialTally
simulateChunk(const std::vector<double> &probs, std::size_t trials,
              Rng &rng)
{
    TrialTally tally;
    tally.trials = trials;
    for (std::size_t t = 0; t < trials; ++t) {
        bool failed = false;
        for (double p : probs) {
            if (rng.bernoulli(p)) {
                failed = true;
                break;
            }
        }
        if (!failed)
            ++tally.successes;
        tally.indicator.add(failed ? 0.0 : 1.0);
    }
    return tally;
}

FaultSimResult
resultFromTally(const TrialTally &tally, double analytic_pst)
{
    VAQ_ASSERT(tally.indicator.count() == tally.trials,
               "trial tally and indicator stream disagree");
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

#include "sim/characterize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vaq::sim
{

using circuit::Circuit;

double
fitDecayRate(const std::vector<int> &depths,
             const std::vector<double> &survival, double floor)
{
    require(depths.size() == survival.size() && depths.size() >= 2,
            "decay fit needs >= 2 points");
    require(floor >= 0.0 && floor < 1.0, "bad decay floor");

    // Linear regression of y = ln(S - floor) against d (the
    // intercept absorbs state-preparation and measurement error;
    // the floor is the uniform-outcome equilibrium the sequence
    // saturates to).
    double sumD = 0.0, sumY = 0.0, sumDD = 0.0, sumDY = 0.0;
    const auto n = static_cast<double>(depths.size());
    for (std::size_t i = 0; i < depths.size(); ++i) {
        const double d = static_cast<double>(depths[i]);
        const double y =
            std::log(std::max(survival[i] - floor, 1e-6));
        sumD += d;
        sumY += y;
        sumDD += d * d;
        sumDY += d * y;
    }
    const double denom = n * sumDD - sumD * sumD;
    VAQ_ASSERT(denom > 0.0, "degenerate depth set");
    const double slope = (n * sumDY - sumD * sumY) / denom;
    const double lambda = std::max(0.0, -slope);
    return 1.0 - std::exp(-lambda);
}

namespace
{

/** Assumed coherence times copied into the estimate (decay
 *  sequences cannot separate them from gate error without delay
 *  instructions). */
constexpr double kAssumedT1Us = 80.0;
constexpr double kAssumedT2Us = 42.0;

/** Survival of the all-zeros outcome on the measured qubits. */
double
survivalOfZeros(const ShotCounts &counts)
{
    const auto it = counts.counts.find(0);
    const double zeros =
        it == counts.counts.end()
            ? 0.0
            : static_cast<double>(it->second);
    return zeros / static_cast<double>(counts.shots);
}

/**
 * Fit the decay using only depths that have not saturated into the
 * equilibrium floor (points within sampling noise of the floor
 * carry no slope information and wreck the regression for weak
 * links). Falls back to the two shallowest depths when saturation
 * is immediate.
 */
double
fitUnsaturated(const std::vector<int> &depths,
               const std::vector<double> &survival, double floor)
{
    std::vector<int> d;
    std::vector<double> s;
    for (std::size_t i = 0; i < depths.size(); ++i) {
        if (survival[i] - floor >= 0.04) {
            d.push_back(depths[i]);
            s.push_back(survival[i]);
        }
    }
    if (d.size() < 2) {
        d.assign(depths.begin(), depths.begin() + 2);
        s.assign(survival.begin(), survival.begin() + 2);
    }
    return fitDecayRate(d, s, floor);
}

} // namespace

calibration::Snapshot
characterizeMachine(const topology::CouplingGraph &graph,
                    const Executor &run,
                    const CharacterizeOptions &options)
{
    require(!options.depths.empty(), "need at least one depth");
    for (int d : options.depths)
        require(d >= 2 && d % 2 == 0, "depths must be even >= 2");
    require(options.visibility > 0.0 && options.visibility <= 1.0,
            "visibility must be in (0, 1]");

    calibration::Snapshot estimate(graph);
    for (int q = 0; q < graph.numQubits(); ++q) {
        estimate.qubit(q).t1Us = kAssumedT1Us;
        estimate.qubit(q).t2Us = kAssumedT2Us;
    }

    // --- Readout: measure the fresh |0...0> state. ---
    {
        Circuit probe(graph.numQubits());
        probe.measureAll();
        const ShotCounts counts = run(probe);
        for (int q = 0; q < graph.numQubits(); ++q) {
            std::size_t flips = 0;
            for (const auto &[outcome, count] : counts.counts) {
                if (outcome & (1ULL << q))
                    flips += count;
            }
            estimate.qubit(q).readoutError =
                static_cast<double>(flips) /
                static_cast<double>(counts.shots);
        }
    }

    // --- Single-qubit gate error: X-pair decay per qubit. ---
    for (int q = 0; q < graph.numQubits(); ++q) {
        std::vector<double> survival;
        for (int depth : options.depths) {
            Circuit seq(graph.numQubits());
            for (int i = 0; i < depth; ++i)
                seq.x(q);
            seq.measure(q);
            survival.push_back(survivalOfZeros(run(seq)));
        }
        // RB relation: per-gate visible error r = (1-alpha) *
        // (1 - 1/2^m) with m = 1 measured qubit, then divide by
        // the 2/3 visibility of 1q Paulis (X and Y flip, Z does
        // not).
        const double oneMinusAlpha =
            fitUnsaturated(options.depths, survival, 0.5);
        estimate.qubit(q).error1q = std::clamp(
            oneMinusAlpha * 0.5 / (2.0 / 3.0), 0.0, 0.5);
    }

    // --- Two-qubit gate error: repeated-CX decay per link. ---
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        std::vector<double> survival;
        for (int depth : options.depths) {
            Circuit seq(graph.numQubits());
            for (int i = 0; i < depth; ++i)
                seq.cx(link.a, link.b);
            seq.measure(link.a);
            seq.measure(link.b);
            survival.push_back(survivalOfZeros(run(seq)));
        }
        // r = (1-alpha) * (1 - 1/2^m) with m = 2 measured
        // qubits, divided by the channel's visibility.
        const double oneMinusAlpha =
            fitUnsaturated(options.depths, survival, 0.25);
        estimate.setLinkError(
            l, std::clamp(oneMinusAlpha * 0.75 /
                              options.visibility,
                          0.0, 0.5));
    }

    estimate.validate();
    return estimate;
}

} // namespace vaq::sim

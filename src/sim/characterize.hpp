/**
 * @file
 * Machine characterization by circuit execution.
 *
 * The paper consumes IBM's published calibration reports, which IBM
 * produces by running randomized-benchmarking-style sequences on the
 * hardware (Section 2.2 cites Knill et al.). This module closes that
 * loop for the simulated machines: it estimates a calibration
 * Snapshot for a machine it can only *execute circuits on* — no
 * access to the underlying error parameters — using decay-curve
 * fits:
 *
 *  - readout error per qubit: measure |0...0> directly; the flip
 *    rate of each bit estimates its readout error,
 *  - two-qubit error per link: run sequences of d repeated CX gates
 *    (even d composes to identity) and fit the |00> survival decay
 *    S(d) = A * exp(-lambda * d); the per-gate disturbance
 *    1 - exp(-lambda) divided by the visibility constant kappa
 *    (the fraction of injected Paulis that perturb a computational
 *    state; 5/6 for the trajectory model's error channel) estimates
 *    the gate error,
 *  - single-qubit error per qubit: same with X-X pairs.
 *
 * The estimated snapshot can then drive the variation-aware
 * policies, demonstrating the full paper workflow: characterize ->
 * compile -> execute.
 */
#ifndef VAQ_SIM_CHARACTERIZE_HPP
#define VAQ_SIM_CHARACTERIZE_HPP

#include <functional>
#include <vector>

#include "calibration/snapshot.hpp"
#include "sim/trajectory_sim.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::sim
{

/** A machine we can only run circuits on. */
using Executor = std::function<ShotCounts(const circuit::Circuit &)>;

/** Knobs for the characterization run. */
struct CharacterizeOptions
{
    /** Shots per circuit (IBM used ~1000 per RB point). */
    std::size_t shots = 2048;
    /** Sequence depths for the decay fit (even, increasing). */
    std::vector<int> depths = {2, 4, 8, 16, 32};
    /**
     * Visibility of an injected error on a computational basis
     * state: fraction of error events that perturb the measured
     * bits. 5/6 matches TrajectorySimulator's channel (uniform
     * Paulis on the first operand, 75 % chance of a
     * second-operand Pauli).
     */
    double visibility = 5.0 / 6.0;
};

/**
 * Estimate the machine's calibration by executing characterization
 * circuits through `run`.
 *
 * @param graph The machine's topology (public knowledge).
 * @param run Executes a circuit and returns measured counts.
 * @param options Tuning knobs.
 * @return A Snapshot with estimated readout, 1q and 2q errors.
 */
calibration::Snapshot
characterizeMachine(const topology::CouplingGraph &graph,
                    const Executor &run,
                    const CharacterizeOptions &options = {});

/**
 * Randomized-benchmarking-style decay fit: least squares of
 * ln(S - floor) = ln A - lambda * d, where `floor` is the
 * equilibrium survival the sequence saturates to (1/2^m for m
 * measured qubits; 0 for a pure exponential).
 * @return per-step decay 1 - exp(-lambda) = 1 - alpha, in [0, 1).
 */
double fitDecayRate(const std::vector<int> &depths,
                    const std::vector<double> &survival,
                    double floor = 0.0);

} // namespace vaq::sim

#endif // VAQ_SIM_CHARACTERIZE_HPP

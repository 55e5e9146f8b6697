/**
 * @file
 * Noisy state-vector (quantum trajectory) simulator.
 *
 * SUBSTITUTION NOTE (DESIGN.md §2.1): the paper's Section 7 runs the
 * compiled programs on the physical IBM-Q5 machine. Standing in for
 * that hardware, this simulator executes the mapped circuit on a
 * dense state vector and stochastically injects discrete Pauli
 * errors per operation, plus readout bit-flips — a *richer* error
 * model than the Bernoulli abstraction the compiler optimizes
 * against (errors can cancel, Z errors before measurement are
 * harmless, wrong outputs appear with definite probabilities). That
 * gap between compile-time model and execution-time behaviour is
 * exactly what the real-system study exercises.
 *
 * PST here is measured the way the paper measures it on hardware:
 * run 4096 shots, count the trials whose (noisy) output is a correct
 * output of the ideal program.
 */
#ifndef VAQ_SIM_TRAJECTORY_SIM_HPP
#define VAQ_SIM_TRAJECTORY_SIM_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/noise_model.hpp"
#include "sim/statevector.hpp"

namespace vaq::sim
{

/** Knobs for the trajectory run. */
struct TrajectoryOptions
{
    std::size_t shots = 4096; ///< paper's per-experiment trial count
    std::uint64_t seed = 29;
    bool readoutNoise = true;
    /**
     * Crosstalk extension (the paper's Section 9 lists "no
     * correlations between errors" among its model limitations):
     * when a two-qubit gate fires, every machine-neighbour of its
     * operands additionally suffers a random Pauli with
     * probability crosstalk * gate-error. 0 (default) reproduces
     * the paper's independent-error model.
     */
    double crosstalk = 0.0;
};

/** Histogram of measured outcomes. */
struct ShotCounts
{
    /** outcome (basis bits masked to measured qubits) -> count. */
    std::map<std::uint64_t, std::size_t> counts;
    std::size_t shots = 0;
    /** OR of (1 << q) over measured qubits. */
    std::uint64_t measuredMask = 0;
};

/**
 * Ideal (noiseless) outcome set of a program: the masked outcomes
 * whose probability exceeds `threshold` under exact simulation.
 * For bv/TriSwap this is a single bitstring; for GHZ it is the pair
 * {00..0, 11..1}.
 *
 * @throws VaqError when the program measures nothing or when the
 *         accept set would cover more than half of the outcome
 *         space (then "success" is not meaningful — use
 *         fault-injection PST instead).
 */
std::vector<std::uint64_t>
idealOutcomes(const circuit::Circuit &logical,
              double threshold = 1e-9);

/** Fraction of shots that landed in the acceptable outcome set. */
double pstFromCounts(const ShotCounts &counts,
                     const std::vector<std::uint64_t> &acceptable);

/** Hardware-surrogate simulator. */
class TrajectorySimulator
{
  public:
    /**
     * @param model Noise model of the simulated machine; two-qubit
     *        gates in executed circuits must respect its topology.
     */
    explicit TrajectorySimulator(const NoiseModel &model,
                                 const TrajectoryOptions &options = {});
    /** The simulator borrows the model: a temporary would dangle. */
    explicit TrajectorySimulator(
        const NoiseModel &&, const TrajectoryOptions & = {}) = delete;

    /**
     * Execute `physical` for options.shots trajectories and return
     * the outcome histogram. Measurements are taken at the end of
     * the circuit over every qubit that has a MEASURE gate.
     */
    ShotCounts run(const circuit::Circuit &physical);

  private:
    const NoiseModel &_model;
    TrajectoryOptions _options;
};

} // namespace vaq::sim

#endif // VAQ_SIM_TRAJECTORY_SIM_HPP

/**
 * @file
 * Dense state-vector simulator.
 *
 * Exact simulation of the libvaq gate set for up to 27 qubits
 * (2^27 amplitudes = 2 GiB — Falcon-27 scale, the dense baseline
 * the Pauli-frame fast path is benchmarked against). Used three
 * ways in this repository:
 *  - functional verification that mapped circuits preserve program
 *    semantics (tests),
 *  - computing the ideal ("correct") output set of a program so a
 *    trial can be judged successful,
 *  - as the engine under the noisy TrajectorySimulator that stands
 *    in for the real IBM-Q5 machine (Table 3).
 *
 * Bit convention: basis index bit q holds the value of qubit q
 * (little-endian).
 */
#ifndef VAQ_SIM_STATEVECTOR_HPP
#define VAQ_SIM_STATEVECTOR_HPP

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace vaq::sim
{

/** Complex amplitude type. */
using Amplitude = std::complex<double>;

/** Row-major 2x2 one-qubit matrix. */
struct Matrix2
{
    Amplitude m[2][2];
};

/**
 * The matrix StateVector::apply multiplies a one-qubit Clifford gate
 * (X/Y/Z/H/S/Sdg) by; throws VaqError for any other kind. The
 * Pauli-frame engine's sparse ideal replay reads the same constants.
 */
Matrix2 cliffordMatrix(circuit::GateKind kind);

/**
 * Update one amplitude pair (a0 at bit q clear, a1 at bit q set)
 * through a 2x2 matrix. Every one-qubit update of the dense engine
 * and of the sparse ideal replay goes through this expression, so
 * the two perform the same float operations by construction.
 */
inline void
applyPair(const Amplitude m[2][2], Amplitude &a0, Amplitude &a1)
{
    const Amplitude b0 = a0;
    const Amplitude b1 = a1;
    a0 = m[0][0] * b0 + m[0][1] * b1;
    a1 = m[1][0] * b0 + m[1][1] * b1;
}

/** Dense 2^n state vector initialized to |0...0>. */
class StateVector
{
  public:
    /** Create |0...0> over `num_qubits` qubits (1..27 supported). */
    explicit StateVector(int num_qubits);

    /** Number of qubits. */
    int numQubits() const { return _numQubits; }

    /** Dimension 2^n. */
    std::uint64_t dimension() const { return _amps.size(); }

    /** Amplitude of a basis state. */
    Amplitude amplitude(std::uint64_t basis) const;

    /** Probability of a basis state. */
    double probability(std::uint64_t basis) const;

    /** Full probability vector (2^n entries). */
    std::vector<double> probabilities() const;

    /**
     * Apply one unitary gate (MEASURE/BARRIER are rejected;
     * use sample()/measureAll for readout).
     */
    void apply(const circuit::Gate &gate);

    /** Apply every unitary gate of a circuit, skipping
     *  measures/barriers. */
    void applyUnitaries(const circuit::Circuit &circuit);

    /** Apply an arbitrary 2x2 unitary to one qubit
     *  (row-major m[2][2]). */
    void applyOneQubitMatrix(circuit::Qubit q,
                             const Amplitude m[2][2]);

    /**
     * Sample a full-register measurement outcome without collapsing
     * the state (repeated sampling = repeated trials of the same
     * prepared state).
     */
    std::uint64_t sample(Rng &rng) const;

    /** L2 norm of the state (should stay 1 within rounding). */
    double norm() const;

    /** Fidelity |<this|other>|^2 with another state. */
    double fidelity(const StateVector &other) const;

  private:
    int _numQubits;
    std::vector<Amplitude> _amps;
};

} // namespace vaq::sim

#endif // VAQ_SIM_STATEVECTOR_HPP

/**
 * @file
 * Quantum circuit container and fluent builder API.
 *
 * A Circuit is an ordered gate list over `numQubits()` qubits. The
 * builder methods return *this so programs read like the QASM they
 * describe:
 *
 * @code
 *   Circuit c(3);
 *   c.h(0).cx(0, 1).cx(1, 2).measureAll();
 * @endcode
 */
#ifndef VAQ_CIRCUIT_CIRCUIT_HPP
#define VAQ_CIRCUIT_CIRCUIT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace vaq::circuit
{

/** Ordered list of gates over a fixed-width qubit register. */
class Circuit
{
  public:
    /** Create an empty circuit over `num_qubits` qubits. */
    explicit Circuit(int num_qubits);

    /** Register width. */
    int numQubits() const { return _numQubits; }

    /** Gate sequence, in program order. */
    const std::vector<Gate> &gates() const { return _gates; }

    /** Number of gates (including measures and barriers). */
    std::size_t size() const { return _gates.size(); }

    /** Append an already-built gate (operands are bounds-checked). */
    Circuit &append(const Gate &gate);

    /** Append every gate of another circuit (widths must match). */
    Circuit &append(const Circuit &other);

    /** Make room for `gates` gates, so appends up to it never
     *  allocate. */
    void reserve(std::size_t gates) { _gates.reserve(gates); }

    /** Drop spare gate capacity (for circuits kept long after they
     *  were built). */
    void shrinkToFit() { _gates.shrink_to_fit(); }

    /// @name Builder shorthands
    /// @{
    Circuit &i(Qubit q);
    Circuit &x(Qubit q);
    Circuit &y(Qubit q);
    Circuit &z(Qubit q);
    Circuit &h(Qubit q);
    Circuit &s(Qubit q);
    Circuit &sdg(Qubit q);
    Circuit &t(Qubit q);
    Circuit &tdg(Qubit q);
    Circuit &rx(Qubit q, double theta);
    Circuit &ry(Qubit q, double theta);
    Circuit &rz(Qubit q, double theta);
    Circuit &u3(Qubit q, double theta, double phi, double lambda);
    /** u2(phi, lambda) = U3(pi/2, phi, lambda). */
    Circuit &u2(Qubit q, double phi, double lambda);
    Circuit &cx(Qubit control, Qubit target);
    Circuit &cz(Qubit a, Qubit b);
    Circuit &swap(Qubit a, Qubit b);
    Circuit &measure(Qubit q);
    Circuit &measureAll();
    Circuit &barrier();
    /// @}

    /// @name Instruction statistics (Table 1 columns)
    /// @{
    /** Gates excluding barriers (the paper's "Total Inst"). */
    std::size_t instructionCount() const;
    /** Count of CX/CZ/SWAP operations. */
    std::size_t twoQubitCount() const;
    /** Count of explicit SWAP operations. */
    std::size_t swapCount() const;
    /** Count of measurement operations. */
    std::size_t measureCount() const;
    /** Circuit depth = number of dependence layers. */
    std::size_t depth() const;
    /// @}

    /** Qubits touched by at least one gate. */
    std::vector<Qubit> activeQubits() const;

    /**
     * Remap every operand through `permutation`, where
     * permutation[old] = new. The permutation must be a bijection on
     * [0, width) with width >= numQubits(); the result has `width`
     * qubits.
     */
    Circuit remapped(const std::vector<Qubit> &permutation,
                     int width) const;

    /** Structural equality. */
    bool operator==(const Circuit &other) const = default;

    /**
     * Content hash over width and the full gate list (kind,
     * operands, angle bit patterns with signed zeros normalized —
     * see common/hashing.hpp). Circuits that compare equal hash
     * equal, so the hash keys compile-artifact caches (the
     * "circuit hash" axis of store/artifact.hpp).
     */
    std::uint64_t contentHash() const;

  private:
    void checkOperand(Qubit q) const;

    int _numQubits;
    std::vector<Gate> _gates;
};

} // namespace vaq::circuit

#endif // VAQ_CIRCUIT_CIRCUIT_HPP

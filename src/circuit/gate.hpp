/**
 * @file
 * Gate model for the quantum-circuit intermediate representation.
 *
 * The gate set covers what the paper's workloads need: the standard
 * one-qubit Cliffords + rotations, CNOT/CZ/SWAP two-qubit gates, and
 * measurement/barrier pseudo-ops. CNOT error rates dominate NISQ
 * reliability (Section 2.2 of the paper), so the IR keeps two-qubit
 * gates first-class and cheap to enumerate.
 */
#ifndef VAQ_CIRCUIT_GATE_HPP
#define VAQ_CIRCUIT_GATE_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace vaq::circuit
{

/** Index of a qubit (program-level or physical, by context). */
using Qubit = int;

/** Sentinel for "no second operand". */
inline constexpr Qubit kNoQubit = -1;

/**
 * Operand width limit: the largest qubit index a Gate stores, and the
 * widest Circuit. Gate keeps its operands as std::int16_t so that the
 * kind and both operands share 8 bytes ahead of the angles; the
 * Circuit constructor, the Gate factories and the QASM parser refuse
 * anything wider, so no operand can wrap.
 */
inline constexpr Qubit kMaxQubits = std::numeric_limits<std::int16_t>::max();

/** The supported gate alphabet. */
enum class GateKind : std::uint8_t
{
    I,       ///< identity (explicit idle)
    X,       ///< Pauli-X
    Y,       ///< Pauli-Y
    Z,       ///< Pauli-Z
    H,       ///< Hadamard
    S,       ///< phase sqrt(Z)
    Sdg,     ///< S-dagger
    T,       ///< pi/8 gate
    Tdg,     ///< T-dagger
    RX,      ///< X rotation by angle
    RY,      ///< Y rotation by angle
    RZ,      ///< Z rotation by angle
    U3,      ///< general 1q unitary U3(theta, phi, lambda)
    CX,      ///< controlled-NOT (control = q0, target = q1)
    CZ,      ///< controlled-Z
    SWAP,    ///< exchange two qubit states (= 3 CNOTs, Fig. 2d)
    MEASURE, ///< Z-basis measurement into classical bit = qubit index
    BARRIER, ///< scheduling barrier across all qubits
};

/**
 * One circuit operation.
 *
 * Plain value type: gates are stored by value in Circuit and copied
 * freely by the mappers when SWAPs are inserted. 32 bytes: operands
 * are std::int16_t, at most kMaxQubits (reads widen them to Qubit).
 */
struct Gate
{
    GateKind kind = GateKind::I;
    std::int16_t q0 = kNoQubit; ///< first (or only) operand
    std::int16_t q1 = kNoQubit; ///< second operand for 2q gates
    double param = 0.0;         ///< rotation angle / U3 theta
    double param2 = 0.0;        ///< U3 phi
    double param3 = 0.0;        ///< U3 lambda

    /** Make a one-qubit gate. */
    static Gate oneQubit(GateKind kind, Qubit q, double param = 0.0);

    /** Make a general one-qubit unitary U3(theta, phi, lambda). */
    static Gate u3(Qubit q, double theta, double phi,
                   double lambda);

    /** Make a two-qubit gate. */
    static Gate twoQubit(GateKind kind, Qubit a, Qubit b);

    /** Make a measurement on qubit q. */
    static Gate measure(Qubit q);

    /** Make a full-width barrier. */
    static Gate barrier();

    /** True for CX/CZ/SWAP. */
    bool isTwoQubit() const;

    /** True for anything except MEASURE/BARRIER. */
    bool isUnitary() const;

    /** True when the gate uses rotation angle(s). */
    bool isParameterized() const;

    /** True when this gate touches qubit q. */
    bool touches(Qubit q) const;

    /** Structural equality (kind, operands, angle). */
    bool operator==(const Gate &other) const = default;
};

/** Lower-case QASM-style mnemonic ("cx", "rz", ...). */
std::string gateName(GateKind kind);

/** Number of qubit operands for the gate kind (0 for BARRIER). */
int gateArity(GateKind kind);

/** Parse a mnemonic back to a GateKind; throws VaqError if unknown. */
GateKind gateKindFromName(std::string_view name);

} // namespace vaq::circuit

#endif // VAQ_CIRCUIT_GATE_HPP

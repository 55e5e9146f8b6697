/**
 * @file
 * Native-basis lowering: rewrite a circuit into the {U3, CX} basis
 * the paper-era IBM machines execute natively (every one-qubit gate
 * is one microwave pulse described by U3(theta, phi, lambda); CZ
 * and SWAP decompose into CX + U3).
 *
 * Useful before handing a compiled circuit to a hardware backend,
 * and as the last step of vaqc --lower.
 */
#ifndef VAQ_CIRCUIT_LOWER_HPP
#define VAQ_CIRCUIT_LOWER_HPP

#include "circuit/circuit.hpp"

namespace vaq::circuit
{

/** Statistics of one toNativeBasis() run. */
struct LowerStats
{
    std::size_t loweredOneQubit = 0; ///< 1q gates rewritten to U3
    std::size_t loweredCz = 0;       ///< CZ -> H-conjugated CX
    std::size_t loweredSwaps = 0;    ///< SWAP -> 3 CX
};

/**
 * Rewrite every gate into {U3, CX, MEASURE, BARRIER}:
 *  - 1q Cliffords/rotations become the equivalent U3 (identity
 *    gates are dropped),
 *  - CZ(a, b) becomes U3-H(b) CX(a, b) U3-H(b),
 *  - SWAP becomes 3 CX (Fig. 2d of the paper).
 * Global phase is not tracked (irrelevant for measurement
 * statistics).
 */
Circuit toNativeBasis(const Circuit &circuit,
                      LowerStats *stats = nullptr);

} // namespace vaq::circuit

#endif // VAQ_CIRCUIT_LOWER_HPP

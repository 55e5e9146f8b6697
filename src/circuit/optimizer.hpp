/**
 * @file
 * Peephole circuit optimizer.
 *
 * Conservative, semantics-preserving cleanups applied to logical or
 * mapped circuits:
 *  - cancel adjacent self-inverse pairs (X·X, H·H, Z·Z, CX·CX,
 *    CZ·CZ, SWAP·SWAP on identical operands),
 *  - cancel adjacent S·Sdg / T·Tdg pairs (either order),
 *  - fuse runs of equal-axis rotations (RZ·RZ etc.) into one,
 *  - drop explicit identity gates and zero-angle rotations.
 *
 * "Adjacent" means adjacent in the per-qubit gate sequence: two
 * gates cancel only when no intervening gate touches any of their
 * qubits, so no commutation reasoning is needed and barriers /
 * measurements act as hard fences.
 *
 * Routing interacts with this pass: a SWAP inserted directly before
 * a CX on the same link turns into 3 CX + 1 CX, of which the lowered
 * pair cancels — run the optimizer after toNativeBasis()
 * (circuit/lower.hpp) to harvest those.
 */
#ifndef VAQ_CIRCUIT_OPTIMIZER_HPP
#define VAQ_CIRCUIT_OPTIMIZER_HPP

#include <cstddef>

#include "circuit/circuit.hpp"

namespace vaq::circuit
{

/** Statistics of one optimize() run. */
struct OptimizerStats
{
    std::size_t cancelledPairs = 0;  ///< self-inverse pairs removed
    std::size_t fusedRotations = 0;  ///< rotations merged away
    std::size_t droppedIdentities = 0; ///< id gates / zero rotations

    /** Total gates removed. */
    std::size_t
    removedGates() const
    {
        return 2 * cancelledPairs + fusedRotations +
               droppedIdentities;
    }
};

/**
 * Run the peephole pass to fixpoint and return the smaller circuit.
 * @param circuit Input circuit (not modified).
 * @param stats Optional out-param accumulating what was removed.
 */
Circuit optimize(const Circuit &circuit,
                 OptimizerStats *stats = nullptr);

} // namespace vaq::circuit

#endif // VAQ_CIRCUIT_OPTIMIZER_HPP

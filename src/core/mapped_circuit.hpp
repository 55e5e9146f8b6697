/**
 * @file
 * Result of compiling a logical circuit onto a machine.
 */
#ifndef VAQ_CORE_MAPPED_CIRCUIT_HPP
#define VAQ_CORE_MAPPED_CIRCUIT_HPP

#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"
#include "core/layout.hpp"

namespace vaq::core
{

/**
 * A physical circuit (every two-qubit gate on a coupled pair) plus
 * the layout bookkeeping needed to interpret its outputs.
 */
struct MappedCircuit
{
    /** The executable circuit over machine-width qubits. */
    circuit::Circuit physical;

    /** Where each program qubit started. */
    Layout initial;

    /** Where each program qubit ended (after all SWAPs). */
    Layout final;

    /** SWAP instructions inserted by routing. */
    std::size_t insertedSwaps = 0;

    /** Name of the policy that produced this mapping. */
    std::string policyName;

    MappedCircuit(int num_prog, int num_phys)
        : physical(num_phys),
          initial(num_prog, num_phys),
          final(num_prog, num_phys)
    {}

    /**
     * Translate a physical measurement outcome (bit q = physical
     * qubit q) into the program's logical outcome (bit i = program
     * qubit i), reading each program qubit at its *final* location.
     */
    std::uint64_t logicalOutcome(std::uint64_t phys_outcome) const;
};

} // namespace vaq::core

#endif // VAQ_CORE_MAPPED_CIRCUIT_HPP

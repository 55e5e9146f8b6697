#include "core/mapped_circuit.hpp"

#include "common/error.hpp"

namespace vaq::core
{

std::uint64_t
MappedCircuit::logicalOutcome(std::uint64_t phys_outcome) const
{
    std::uint64_t logical = 0;
    for (int prog = 0; prog < final.numProg(); ++prog) {
        const topology::PhysQubit p = final.phys(prog);
        if (phys_outcome & (1ULL << p))
            logical |= 1ULL << prog;
    }
    return logical;
}

} // namespace vaq::core

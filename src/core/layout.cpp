#include "core/layout.hpp"

#include "common/error.hpp"

namespace vaq::core
{

Layout::Layout(int num_prog, int num_phys)
    : _progToPhys(static_cast<std::size_t>(num_prog), kFreeQubit),
      _physToProg(static_cast<std::size_t>(num_phys), kFreeQubit)
{
    require(num_prog >= 1, "layout needs at least one program qubit");
    if (num_prog > num_phys) {
        throw VaqError("machine too small: " + std::to_string(num_prog) +
                       " program qubits, " + std::to_string(num_phys) +
                       " physical qubits");
    }
}

Layout
Layout::identity(int num_prog, int num_phys)
{
    Layout layout(num_prog, num_phys);
    for (int q = 0; q < num_prog; ++q)
        layout.assign(q, q);
    return layout;
}

void
Layout::checkProg(circuit::Qubit prog) const
{
    require(prog >= 0 && prog < numProg(),
            "program qubit out of range");
}

void
Layout::checkPhys(topology::PhysQubit phys) const
{
    require(phys >= 0 && phys < numPhys(),
            "physical qubit out of range");
}

topology::PhysQubit
Layout::phys(circuit::Qubit prog) const
{
    checkProg(prog);
    const int p = _progToPhys[static_cast<std::size_t>(prog)];
    require(p != kFreeQubit, "program qubit not yet placed");
    return p;
}

circuit::Qubit
Layout::prog(topology::PhysQubit phys) const
{
    checkPhys(phys);
    return _physToProg[static_cast<std::size_t>(phys)];
}

bool
Layout::isComplete() const
{
    for (int p : _progToPhys) {
        if (p == kFreeQubit)
            return false;
    }
    return true;
}

void
Layout::assign(circuit::Qubit prog, topology::PhysQubit phys)
{
    checkProg(prog);
    checkPhys(phys);
    require(_progToPhys[static_cast<std::size_t>(prog)] ==
                kFreeQubit,
            "program qubit already placed");
    require(_physToProg[static_cast<std::size_t>(phys)] ==
                kFreeQubit,
            "physical qubit already occupied");
    _progToPhys[static_cast<std::size_t>(prog)] = phys;
    _physToProg[static_cast<std::size_t>(phys)] = prog;
}

void
Layout::applySwap(topology::PhysQubit p1, topology::PhysQubit p2)
{
    checkPhys(p1);
    checkPhys(p2);
    require(p1 != p2, "swap needs two distinct physical qubits");
    const int prog1 = _physToProg[static_cast<std::size_t>(p1)];
    const int prog2 = _physToProg[static_cast<std::size_t>(p2)];
    _physToProg[static_cast<std::size_t>(p1)] = prog2;
    _physToProg[static_cast<std::size_t>(p2)] = prog1;
    if (prog1 != kFreeQubit)
        _progToPhys[static_cast<std::size_t>(prog1)] = p2;
    if (prog2 != kFreeQubit)
        _progToPhys[static_cast<std::size_t>(prog2)] = p1;
}

std::vector<int>
Layout::progToPhys() const
{
    require(isComplete(), "layout is incomplete");
    return _progToPhys;
}

} // namespace vaq::core

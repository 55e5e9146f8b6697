#include "circuit/circuit.hpp"

#include <cmath>

#include <algorithm>
#include <string>

#include "circuit/layering.hpp"
#include "common/error.hpp"
#include "common/hashing.hpp"

namespace vaq::circuit
{

Circuit::Circuit(int num_qubits)
    : _numQubits(num_qubits)
{
    require(num_qubits > 0, "circuit needs at least one qubit");
    if (num_qubits > kMaxQubits) {
        throw VaqError("circuit width " + std::to_string(num_qubits) +
                       " exceeds the operand limit " +
                       std::to_string(kMaxQubits));
    }
}

void
Circuit::checkOperand(Qubit q) const
{
    require(q >= 0 && q < _numQubits,
            "qubit operand out of range for circuit width");
}

Circuit &
Circuit::append(const Gate &gate)
{
    if (gate.kind != GateKind::BARRIER) {
        checkOperand(gate.q0);
        if (gate.isTwoQubit())
            checkOperand(gate.q1);
    }
    _gates.push_back(gate);
    return *this;
}

Circuit &
Circuit::append(const Circuit &other)
{
    require(other._numQubits <= _numQubits,
            "appended circuit is wider than the target");
    for (const Gate &g : other._gates)
        append(g);
    return *this;
}

Circuit &Circuit::i(Qubit q)
{ return append(Gate::oneQubit(GateKind::I, q)); }
Circuit &Circuit::x(Qubit q)
{ return append(Gate::oneQubit(GateKind::X, q)); }
Circuit &Circuit::y(Qubit q)
{ return append(Gate::oneQubit(GateKind::Y, q)); }
Circuit &Circuit::z(Qubit q)
{ return append(Gate::oneQubit(GateKind::Z, q)); }
Circuit &Circuit::h(Qubit q)
{ return append(Gate::oneQubit(GateKind::H, q)); }
Circuit &Circuit::s(Qubit q)
{ return append(Gate::oneQubit(GateKind::S, q)); }
Circuit &Circuit::sdg(Qubit q)
{ return append(Gate::oneQubit(GateKind::Sdg, q)); }
Circuit &Circuit::t(Qubit q)
{ return append(Gate::oneQubit(GateKind::T, q)); }
Circuit &Circuit::tdg(Qubit q)
{ return append(Gate::oneQubit(GateKind::Tdg, q)); }

Circuit &
Circuit::rx(Qubit q, double theta)
{
    return append(Gate::oneQubit(GateKind::RX, q, theta));
}

Circuit &
Circuit::ry(Qubit q, double theta)
{
    return append(Gate::oneQubit(GateKind::RY, q, theta));
}

Circuit &
Circuit::rz(Qubit q, double theta)
{
    return append(Gate::oneQubit(GateKind::RZ, q, theta));
}

Circuit &
Circuit::u3(Qubit q, double theta, double phi, double lambda)
{
    return append(Gate::u3(q, theta, phi, lambda));
}

Circuit &
Circuit::u2(Qubit q, double phi, double lambda)
{
    return append(Gate::u3(q, M_PI / 2.0, phi, lambda));
}

Circuit &
Circuit::cx(Qubit control, Qubit target)
{
    return append(Gate::twoQubit(GateKind::CX, control, target));
}

Circuit &
Circuit::cz(Qubit a, Qubit b)
{
    return append(Gate::twoQubit(GateKind::CZ, a, b));
}

Circuit &
Circuit::swap(Qubit a, Qubit b)
{
    return append(Gate::twoQubit(GateKind::SWAP, a, b));
}

Circuit &
Circuit::measure(Qubit q)
{
    return append(Gate::measure(q));
}

Circuit &
Circuit::measureAll()
{
    for (Qubit q = 0; q < _numQubits; ++q)
        measure(q);
    return *this;
}

Circuit &
Circuit::barrier()
{
    return append(Gate::barrier());
}

std::size_t
Circuit::instructionCount() const
{
    std::size_t n = 0;
    for (const Gate &g : _gates) {
        if (g.kind != GateKind::BARRIER)
            ++n;
    }
    return n;
}

std::size_t
Circuit::twoQubitCount() const
{
    std::size_t n = 0;
    for (const Gate &g : _gates) {
        if (g.isTwoQubit())
            ++n;
    }
    return n;
}

std::size_t
Circuit::swapCount() const
{
    std::size_t n = 0;
    for (const Gate &g : _gates) {
        if (g.kind == GateKind::SWAP)
            ++n;
    }
    return n;
}

std::size_t
Circuit::measureCount() const
{
    std::size_t n = 0;
    for (const Gate &g : _gates) {
        if (g.kind == GateKind::MEASURE)
            ++n;
    }
    return n;
}

std::size_t
Circuit::depth() const
{
    return layerize(*this).size();
}

std::vector<Qubit>
Circuit::activeQubits() const
{
    std::vector<bool> used(static_cast<std::size_t>(_numQubits),
                           false);
    for (const Gate &g : _gates) {
        if (g.kind == GateKind::BARRIER)
            continue;
        used[static_cast<std::size_t>(g.q0)] = true;
        if (g.isTwoQubit())
            used[static_cast<std::size_t>(g.q1)] = true;
    }
    std::vector<Qubit> out;
    for (int q = 0; q < _numQubits; ++q) {
        if (used[static_cast<std::size_t>(q)])
            out.push_back(q);
    }
    return out;
}

Circuit
Circuit::remapped(const std::vector<Qubit> &permutation,
                  int width) const
{
    require(width >= _numQubits,
            "remap target narrower than source circuit");
    require(permutation.size() >=
                static_cast<std::size_t>(_numQubits),
            "permutation too short for circuit");

    // Verify injectivity onto [0, width).
    std::vector<bool> seen(static_cast<std::size_t>(width), false);
    for (int q = 0; q < _numQubits; ++q) {
        const Qubit p = permutation[static_cast<std::size_t>(q)];
        require(p >= 0 && p < width,
                "permutation image out of range");
        require(!seen[static_cast<std::size_t>(p)],
                "permutation not injective");
        seen[static_cast<std::size_t>(p)] = true;
    }

    Circuit out(width);
    out.reserve(_gates.size());
    for (Gate g : _gates) {
        if (g.kind != GateKind::BARRIER) {
            g.q0 = permutation[static_cast<std::size_t>(g.q0)];
            if (g.isTwoQubit())
                g.q1 = permutation[static_cast<std::size_t>(g.q1)];
        }
        out.append(g);
    }
    return out;
}

std::uint64_t
Circuit::contentHash() const
{
    std::uint64_t h = kHashSeed;
    h = hashCombine(h, static_cast<std::uint64_t>(_numQubits));
    h = hashCombine(h, static_cast<std::uint64_t>(_gates.size()));
    for (const Gate &g : _gates) {
        // Pack kind and both operands into one word (operands are
        // small non-negative ints, or the -1 sentinel).
        const std::uint64_t word =
            (static_cast<std::uint64_t>(g.kind) << 48) ^
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(g.q0))
             << 24) ^
            static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(g.q1));
        h = hashCombine(h, word);
        if (g.isParameterized()) {
            h = hashCombine(h, g.param);
            h = hashCombine(h, g.param2);
            h = hashCombine(h, g.param3);
        }
    }
    return h;
}

} // namespace vaq::circuit

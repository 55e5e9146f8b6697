#include "sim/statevector.hpp"

#include <cmath>

#include "common/error.hpp"

namespace vaq::sim
{

using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

namespace
{

constexpr double kInvSqrt2 = 0.7071067811865475244;

} // namespace

Matrix2
cliffordMatrix(GateKind kind)
{
    switch (kind) {
      case GateKind::X:
        return {{{0, 1}, {1, 0}}};
      case GateKind::Y:
        return {{{0, Amplitude(0, -1)}, {Amplitude(0, 1), 0}}};
      case GateKind::Z:
        return {{{1, 0}, {0, -1}}};
      case GateKind::H:
        return {{{kInvSqrt2, kInvSqrt2}, {kInvSqrt2, -kInvSqrt2}}};
      case GateKind::S:
        return {{{1, 0}, {0, Amplitude(0, 1)}}};
      case GateKind::Sdg:
        return {{{1, 0}, {0, Amplitude(0, -1)}}};
      default:
        break;
    }
    throw VaqError("no one-qubit Clifford matrix for " +
                   circuit::gateName(kind));
}

StateVector::StateVector(int num_qubits)
    : _numQubits(num_qubits)
{
    require(num_qubits >= 1 && num_qubits <= 27,
            "statevector supports 1..27 qubits");
    _amps.assign(1ULL << num_qubits, Amplitude(0.0, 0.0));
    _amps[0] = Amplitude(1.0, 0.0);
}

Amplitude
StateVector::amplitude(std::uint64_t basis) const
{
    require(basis < dimension(), "basis index out of range");
    return _amps[basis];
}

double
StateVector::probability(std::uint64_t basis) const
{
    return std::norm(amplitude(basis));
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> probs;
    probs.reserve(_amps.size());
    for (const Amplitude &a : _amps)
        probs.push_back(std::norm(a));
    return probs;
}

void
StateVector::applyOneQubitMatrix(Qubit q, const Amplitude m[2][2])
{
    require(q >= 0 && q < _numQubits, "qubit out of range");
    const std::uint64_t stride = 1ULL << q;
    const std::uint64_t dim = dimension();
    for (std::uint64_t base = 0; base < dim; base += stride * 2) {
        for (std::uint64_t offset = 0; offset < stride; ++offset) {
            const std::uint64_t i0 = base + offset;
            applyPair(m, _amps[i0], _amps[i0 + stride]);
        }
    }
}

void
StateVector::apply(const Gate &gate)
{
    require(gate.isUnitary(),
            "cannot apply measure/barrier as a unitary");

    switch (gate.kind) {
      case GateKind::I:
        return;
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::H:
      case GateKind::S:
      case GateKind::Sdg:
        applyOneQubitMatrix(gate.q0, cliffordMatrix(gate.kind).m);
        return;
      case GateKind::T: {
        const Amplitude m[2][2] = {
            {1, 0}, {0, std::polar(1.0, M_PI / 4.0)}};
        applyOneQubitMatrix(gate.q0, m);
        return;
      }
      case GateKind::Tdg: {
        const Amplitude m[2][2] = {
            {1, 0}, {0, std::polar(1.0, -M_PI / 4.0)}};
        applyOneQubitMatrix(gate.q0, m);
        return;
      }
      case GateKind::RX: {
        const double half = gate.param / 2.0;
        const Amplitude m[2][2] = {
            {std::cos(half), Amplitude(0, -std::sin(half))},
            {Amplitude(0, -std::sin(half)), std::cos(half)}};
        applyOneQubitMatrix(gate.q0, m);
        return;
      }
      case GateKind::RY: {
        const double half = gate.param / 2.0;
        const Amplitude m[2][2] = {
            {std::cos(half), -std::sin(half)},
            {std::sin(half), std::cos(half)}};
        applyOneQubitMatrix(gate.q0, m);
        return;
      }
      case GateKind::RZ: {
        const double half = gate.param / 2.0;
        const Amplitude m[2][2] = {
            {std::polar(1.0, -half), 0},
            {0, std::polar(1.0, half)}};
        applyOneQubitMatrix(gate.q0, m);
        return;
      }
      case GateKind::U3: {
        const double half = gate.param / 2.0;
        const Amplitude m[2][2] = {
            {std::cos(half),
             -std::polar(1.0, gate.param3) * std::sin(half)},
            {std::polar(1.0, gate.param2) * std::sin(half),
             std::polar(1.0, gate.param2 + gate.param3) *
                 std::cos(half)}};
        applyOneQubitMatrix(gate.q0, m);
        return;
      }
      case GateKind::CX: {
        // Flip target bit where control bit is set.
        const std::uint64_t cbit = 1ULL << gate.q0;
        const std::uint64_t tbit = 1ULL << gate.q1;
        const std::uint64_t dim = dimension();
        for (std::uint64_t i = 0; i < dim; ++i) {
            if ((i & cbit) && !(i & tbit))
                std::swap(_amps[i], _amps[i | tbit]);
        }
        return;
      }
      case GateKind::CZ: {
        const std::uint64_t abit = 1ULL << gate.q0;
        const std::uint64_t bbit = 1ULL << gate.q1;
        const std::uint64_t dim = dimension();
        for (std::uint64_t i = 0; i < dim; ++i) {
            if ((i & abit) && (i & bbit))
                _amps[i] = -_amps[i];
        }
        return;
      }
      case GateKind::SWAP: {
        const std::uint64_t abit = 1ULL << gate.q0;
        const std::uint64_t bbit = 1ULL << gate.q1;
        const std::uint64_t dim = dimension();
        for (std::uint64_t i = 0; i < dim; ++i) {
            if ((i & abit) && !(i & bbit))
                std::swap(_amps[i], _amps[(i & ~abit) | bbit]);
        }
        return;
      }
      case GateKind::MEASURE:
      case GateKind::BARRIER:
        break;
    }
    VAQ_ASSERT(false, "unhandled gate kind in statevector");
}

void
StateVector::applyUnitaries(const circuit::Circuit &circuit)
{
    require(circuit.numQubits() <= _numQubits,
            "circuit wider than statevector");
    for (const Gate &gate : circuit.gates()) {
        if (gate.isUnitary())
            apply(gate);
    }
}

std::uint64_t
StateVector::sample(Rng &rng) const
{
    double r = rng.uniform();
    const std::uint64_t dim = dimension();
    for (std::uint64_t i = 0; i + 1 < dim; ++i) {
        const double p = std::norm(_amps[i]);
        if (r < p)
            return i;
        r -= p;
    }
    return dim - 1;
}

double
StateVector::norm() const
{
    double total = 0.0;
    for (const Amplitude &a : _amps)
        total += std::norm(a);
    return std::sqrt(total);
}

double
StateVector::fidelity(const StateVector &other) const
{
    require(other.dimension() == dimension(),
            "fidelity requires equal widths");
    Amplitude inner(0.0, 0.0);
    for (std::uint64_t i = 0; i < dimension(); ++i)
        inner += std::conj(_amps[i]) * other._amps[i];
    return std::norm(inner);
}

} // namespace vaq::sim

#include "circuit/gate.hpp"

#include <string>

#include "common/error.hpp"

namespace vaq::circuit
{

namespace
{

/** A factory operand must be a non-negative index within kMaxQubits. */
void
requireOperand(Qubit q)
{
    require(q >= 0, "negative qubit index");
    if (q > kMaxQubits) {
        throw VaqError("qubit index " + std::to_string(q) +
                       " exceeds the operand limit " +
                       std::to_string(kMaxQubits));
    }
}

} // namespace

Gate
Gate::oneQubit(GateKind kind, Qubit q, double param)
{
    VAQ_ASSERT(gateArity(kind) == 1, "not a one-qubit gate kind");
    requireOperand(q);
    Gate g;
    g.kind = kind;
    g.q0 = static_cast<std::int16_t>(q);
    g.param = param;
    return g;
}

Gate
Gate::twoQubit(GateKind kind, Qubit a, Qubit b)
{
    VAQ_ASSERT(gateArity(kind) == 2, "not a two-qubit gate kind");
    requireOperand(a);
    requireOperand(b);
    require(a != b, "two-qubit gate needs distinct operands");
    Gate g;
    g.kind = kind;
    g.q0 = static_cast<std::int16_t>(a);
    g.q1 = static_cast<std::int16_t>(b);
    return g;
}

Gate
Gate::measure(Qubit q)
{
    requireOperand(q);
    Gate g;
    g.kind = GateKind::MEASURE;
    g.q0 = static_cast<std::int16_t>(q);
    return g;
}

Gate
Gate::barrier()
{
    Gate g;
    g.kind = GateKind::BARRIER;
    return g;
}

bool
Gate::isTwoQubit() const
{
    return gateArity(kind) == 2;
}

bool
Gate::isUnitary() const
{
    return kind != GateKind::MEASURE && kind != GateKind::BARRIER;
}

Gate
Gate::u3(Qubit q, double theta, double phi, double lambda)
{
    Gate g = oneQubit(GateKind::U3, q, theta);
    g.param2 = phi;
    g.param3 = lambda;
    return g;
}

bool
Gate::isParameterized() const
{
    return kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::RZ || kind == GateKind::U3;
}

bool
Gate::touches(Qubit q) const
{
    return q0 == q || q1 == q;
}

std::string
gateName(GateKind kind)
{
    switch (kind) {
      case GateKind::I: return "id";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::H: return "h";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::U3: return "u3";
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::SWAP: return "swap";
      case GateKind::MEASURE: return "measure";
      case GateKind::BARRIER: return "barrier";
    }
    VAQ_ASSERT(false, "unhandled GateKind");
    return {};
}

int
gateArity(GateKind kind)
{
    switch (kind) {
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::SWAP:
        return 2;
      case GateKind::BARRIER:
        return 0;
      default:
        return 1;
    }
}

GateKind
gateKindFromName(std::string_view name)
{
    static const struct { const char *name; GateKind kind; } table[] = {
        {"id", GateKind::I},       {"x", GateKind::X},
        {"y", GateKind::Y},        {"z", GateKind::Z},
        {"h", GateKind::H},        {"s", GateKind::S},
        {"sdg", GateKind::Sdg},    {"t", GateKind::T},
        {"tdg", GateKind::Tdg},    {"rx", GateKind::RX},
        {"ry", GateKind::RY},      {"rz", GateKind::RZ},
        {"u3", GateKind::U3},     {"u2", GateKind::U3},
        {"u1", GateKind::RZ},      {"cx", GateKind::CX},
        {"cz", GateKind::CZ},      {"swap", GateKind::SWAP},
        {"measure", GateKind::MEASURE},
        {"barrier", GateKind::BARRIER},
    };
    for (const auto &entry : table) {
        if (name == entry.name)
            return entry.kind;
    }
    throw VaqError("unknown gate mnemonic: '" + std::string(name) + "'");
}

} // namespace vaq::circuit

#include "circuit/lower.hpp"

#include <cmath>

#include "common/error.hpp"

namespace vaq::circuit
{

namespace
{

/** U3 angles equivalent to each fixed one-qubit gate. */
Gate
u3For(GateKind kind, Qubit q, double param)
{
    switch (kind) {
      case GateKind::X:
        return Gate::u3(q, M_PI, 0.0, M_PI);
      case GateKind::Y:
        return Gate::u3(q, M_PI, M_PI / 2.0, M_PI / 2.0);
      case GateKind::Z:
        return Gate::u3(q, 0.0, 0.0, M_PI);
      case GateKind::H:
        return Gate::u3(q, M_PI / 2.0, 0.0, M_PI);
      case GateKind::S:
        return Gate::u3(q, 0.0, 0.0, M_PI / 2.0);
      case GateKind::Sdg:
        return Gate::u3(q, 0.0, 0.0, -M_PI / 2.0);
      case GateKind::T:
        return Gate::u3(q, 0.0, 0.0, M_PI / 4.0);
      case GateKind::Tdg:
        return Gate::u3(q, 0.0, 0.0, -M_PI / 4.0);
      case GateKind::RX:
        return Gate::u3(q, param, -M_PI / 2.0, M_PI / 2.0);
      case GateKind::RY:
        return Gate::u3(q, param, 0.0, 0.0);
      case GateKind::RZ:
        // Up to global phase, RZ(a) = U3(0, 0, a).
        return Gate::u3(q, 0.0, 0.0, param);
      default:
        VAQ_ASSERT(false, "not a lowerable 1q gate");
        return Gate::u3(q, 0, 0, 0);
    }
}

} // namespace

Circuit
toNativeBasis(const Circuit &circuit, LowerStats *stats)
{
    LowerStats local;
    Circuit out(circuit.numQubits());
    const Gate hGate = u3For(GateKind::H, 0, 0.0);

    auto emitH = [&](Qubit q) {
        Gate h = hGate;
        h.q0 = q;
        out.append(h);
    };

    for (const Gate &g : circuit.gates()) {
        switch (g.kind) {
          case GateKind::I:
            break; // identity: drop
          case GateKind::MEASURE:
          case GateKind::BARRIER:
          case GateKind::CX:
          case GateKind::U3:
            out.append(g);
            break;
          case GateKind::CZ:
            // CZ = (I (x) H) CX (I (x) H).
            ++local.loweredCz;
            emitH(g.q1);
            out.cx(g.q0, g.q1);
            emitH(g.q1);
            break;
          case GateKind::SWAP:
            ++local.loweredSwaps;
            out.cx(g.q0, g.q1);
            out.cx(g.q1, g.q0);
            out.cx(g.q0, g.q1);
            break;
          default:
            ++local.loweredOneQubit;
            out.append(u3For(g.kind, g.q0, g.param));
            break;
        }
    }
    if (stats != nullptr)
        *stats = local;
    return out;
}

} // namespace vaq::circuit

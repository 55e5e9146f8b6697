#include "circuit/orient.hpp"

#include "common/error.hpp"

namespace vaq::circuit
{

namespace
{

/** Emit a CX honouring the allowed direction. */
void
emitCx(Circuit &out, const topology::CnotDirections &directions,
       Qubit control, Qubit target, OrientStats &stats)
{
    if (directions.allowed(control, target)) {
        out.cx(control, target);
        return;
    }
    if (!directions.allowed(target, control)) {
        throw VaqError("no native CX direction between " +
                       std::to_string(control) + " and " +
                       std::to_string(target));
    }
    ++stats.reversedCnots;
    out.h(control);
    out.h(target);
    out.cx(target, control);
    out.h(control);
    out.h(target);
}

} // namespace

Circuit
orientCnots(const Circuit &physical,
            const topology::CnotDirections &directions,
            OrientStats *stats)
{
    OrientStats local;
    Circuit out(physical.numQubits());
    for (const Gate &g : physical.gates()) {
        switch (g.kind) {
          case GateKind::CX:
            emitCx(out, directions, g.q0, g.q1, local);
            break;
          case GateKind::SWAP:
            // SWAP = CX(a,b) CX(b,a) CX(a,b); each leg oriented.
            ++local.loweredSwaps;
            emitCx(out, directions, g.q0, g.q1, local);
            emitCx(out, directions, g.q1, g.q0, local);
            emitCx(out, directions, g.q0, g.q1, local);
            break;
          default:
            out.append(g);
        }
    }
    if (stats != nullptr)
        *stats = local;
    return out;
}

} // namespace vaq::circuit

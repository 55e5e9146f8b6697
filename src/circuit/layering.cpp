#include "circuit/layering.hpp"

#include <algorithm>

namespace vaq::circuit
{

std::vector<Layer>
layerize(const Circuit &circuit)
{
    std::vector<Layer> layers;
    // frontier[q] = first layer index at which qubit q is free.
    std::vector<std::size_t> frontier(
        static_cast<std::size_t>(circuit.numQubits()), 0);
    std::size_t barrierFloor = 0;

    const auto &gates = circuit.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.kind == GateKind::BARRIER) {
            barrierFloor = layers.size();
            continue;
        }
        std::size_t at = std::max(
            barrierFloor,
            frontier[static_cast<std::size_t>(g.q0)]);
        if (g.isTwoQubit()) {
            at = std::max(
                at, frontier[static_cast<std::size_t>(g.q1)]);
        }
        if (at >= layers.size())
            layers.resize(at + 1);
        layers[at].push_back(i);
        frontier[static_cast<std::size_t>(g.q0)] = at + 1;
        if (g.isTwoQubit())
            frontier[static_cast<std::size_t>(g.q1)] = at + 1;
    }
    return layers;
}

} // namespace vaq::circuit

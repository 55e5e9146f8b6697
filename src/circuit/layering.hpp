/**
 * @file
 * Dependence-layer partitioning of a circuit.
 *
 * Both the baseline (Zulehner-style) mapper and the variation-aware
 * mappers operate layer by layer: each layer groups operations that
 * touch disjoint qubits and can execute in parallel (step 3 of the
 * paper's Section 4.5). Barriers force a layer boundary.
 */
#ifndef VAQ_CIRCUIT_LAYERING_HPP
#define VAQ_CIRCUIT_LAYERING_HPP

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"

namespace vaq::circuit
{

/** One dependence layer: indices into Circuit::gates(). */
using Layer = std::vector<std::size_t>;

/**
 * Partition `circuit` into ASAP dependence layers.
 *
 * A gate is placed in the earliest layer after the last layer that
 * touches any of its operands. Barrier gates are not emitted into any
 * layer but force all subsequent gates into strictly later layers.
 *
 * @return Layers in execution order; the vector's size equals the
 *         circuit depth.
 */
std::vector<Layer> layerize(const Circuit &circuit);

} // namespace vaq::circuit

#endif // VAQ_CIRCUIT_LAYERING_HPP

/**
 * @file
 * Human-readable mapping reports.
 *
 * "Why did the compiler put my qubits there?" — the report shows
 * the initial placement with each qubit's quality numbers, which
 * links the compiled circuit actually exercises (with their error
 * rates and usage counts), and a per-source breakdown of the
 * estimated success probability, all read from the circuit's
 * analysis::SensitivityProfile. Exposed by vaqc as --explain.
 */
#ifndef VAQ_CORE_EXPLAIN_HPP
#define VAQ_CORE_EXPLAIN_HPP

#include <string>

#include "calibration/snapshot.hpp"
#include "core/mapped_circuit.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/**
 * Render the full report: placement, link usage, breakdown.
 */
std::string explainMapping(const MappedCircuit &mapped,
                           const topology::CouplingGraph &graph,
                           const calibration::Snapshot &snapshot);

} // namespace vaq::core

#endif // VAQ_CORE_EXPLAIN_HPP

#include "analysis/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace vaq::analysis
{

using circuit::Gate;
using circuit::GateKind;

const char *
paramName(ParamKind kind)
{
    switch (kind) {
      case ParamKind::Error2q:
        return "error2q";
      case ParamKind::Error1q:
        return "error1q";
      case ParamKind::Readout:
        return "readout";
      case ParamKind::T1:
        return "t1";
    }
    return "";
}

std::string
SensitivityTerm::site() const
{
    if (kind == ParamKind::Error2q)
        return "link {" + std::to_string(q0) + "," +
               std::to_string(q1) + "}";
    return "qubit " + std::to_string(index);
}

double
QubitSensitivity::dError1q() const
{
    return -oneQubitGates / (1.0 - error1q);
}

double
QubitSensitivity::dReadout() const
{
    return -measurements / (1.0 - readoutError);
}

double
QubitSensitivity::dT1Us() const
{
    return busyNs / (1000.0 * t1Us * t1Us);
}

double
QubitSensitivity::error1qMass() const
{
    return -oneQubitGates * std::log1p(-error1q);
}

double
QubitSensitivity::readoutMass() const
{
    return -measurements * std::log1p(-readoutError);
}

double
QubitSensitivity::t1Mass() const
{
    return busyNs / (1000.0 * t1Us);
}

double
QubitSensitivity::contribution() const
{
    double mass = t1Mass();
    if (oneQubitGates > 0.0)
        mass += error1qMass();
    if (measurements > 0.0)
        mass += readoutMass();
    return mass;
}

double
LinkSensitivity::dError2q() const
{
    return -effectiveGates / (1.0 - error2q);
}

double
LinkSensitivity::contribution() const
{
    return -effectiveGates * std::log1p(-error2q);
}

double
SensitivityProfile::pst() const
{
    return std::exp(logPst);
}

double
SensitivityProfile::totalMass() const
{
    double mass = 0.0;
    for (const QubitSensitivity &q : qubits)
        mass += q.contribution();
    for (const LinkSensitivity &l : links)
        mass += l.contribution();
    return mass;
}

double
SensitivityProfile::massOf(ParamKind kind) const
{
    double mass = 0.0;
    for (const SensitivityTerm &term : terms())
        if (term.kind == kind)
            mass += term.mass;
    return mass;
}

std::vector<SensitivityTerm>
SensitivityProfile::terms() const
{
    std::vector<SensitivityTerm> out;
    for (const LinkSensitivity &l : links)
        out.push_back({ParamKind::Error2q, l.link, l.q0, l.q1,
                       l.effectiveGates, l.error2q, l.dError2q(),
                       l.contribution()});
    for (const QubitSensitivity &q : qubits) {
        const auto index = static_cast<std::size_t>(q.qubit);
        if (q.oneQubitGates > 0.0)
            out.push_back({ParamKind::Error1q, index, -1, -1,
                           q.oneQubitGates, q.error1q, q.dError1q(),
                           q.error1qMass()});
        if (q.measurements > 0.0)
            out.push_back({ParamKind::Readout, index, -1, -1,
                           q.measurements, q.readoutError,
                           q.dReadout(), q.readoutMass()});
        if (q.busyNs > 0.0)
            out.push_back({ParamKind::T1, index, -1, -1, q.busyNs,
                           q.t1Us, q.dT1Us(), q.t1Mass()});
    }
    return out;
}

std::vector<SensitivityTerm>
SensitivityProfile::rankedTerms() const
{
    std::vector<SensitivityTerm> ranked = terms();
    std::sort(ranked.begin(), ranked.end(),
              [](const SensitivityTerm &a, const SensitivityTerm &b) {
                  if (a.mass != b.mass)
                      return a.mass > b.mass;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  return a.index < b.index;
              });
    return ranked;
}

SensitivityProfile
analyzeSensitivity(const DataflowAnalysis &dataflow,
                   const topology::CouplingGraph &graph,
                   const calibration::Snapshot &snapshot)
{
    const circuit::Circuit &circuit = dataflow.circuit();
    require(circuit.numQubits() <= graph.numQubits() &&
                snapshot.numQubits() == graph.numQubits() &&
                snapshot.numLinks() == graph.linkCount(),
            "sensitivity analysis needs a physical circuit on a "
            "machine the snapshot covers");

    SensitivityProfile profile;
    profile.durations = snapshot.durations;

    // Per-qubit counts from the def/use chains: every non-barrier
    // gate in a qubit's chain charges its duration to that qubit's
    // T1 exposure; 1q unitaries and measurements also carry a gate
    // error on the qubit itself.
    for (int q = 0; q < circuit.numQubits(); ++q) {
        const QubitChain &chain = dataflow.chain(q);
        if (!chain.touched())
            continue;
        QubitSensitivity record;
        record.qubit = q;
        const calibration::QubitCalibration &cal = snapshot.qubit(q);
        record.error1q = cal.error1q;
        record.readoutError = cal.readoutError;
        record.t1Us = cal.t1Us;
        for (const std::size_t idx : chain.touches) {
            const Gate &gate = circuit.gates()[idx];
            record.busyNs +=
                calibration::gateDurationNs(gate, profile.durations);
            if (gate.kind == GateKind::MEASURE)
                record.measurements += 1.0;
            else if (gate.isUnitary() && !gate.isTwoQubit())
                record.oneQubitGates += 1.0;
        }
        profile.qubits.push_back(record);
    }

    // Per-link effective gate counts from one walk of the gate list
    // (chains would see each two-qubit gate twice).
    std::map<std::size_t, double> linkGates;
    for (const Gate &gate : circuit.gates()) {
        if (gate.kind != GateKind::BARRIER)
            ++profile.opCount;
        if (!gate.isTwoQubit())
            continue;
        require(graph.coupled(gate.q0, gate.q1),
                "sensitivity analysis found a two-qubit gate on an "
                "uncoupled pair; the circuit is not executable");
        const std::size_t link = graph.linkIndex(gate.q0, gate.q1);
        linkGates[link] +=
            gate.kind == GateKind::SWAP ? 3.0 : 1.0;
    }
    for (const auto &[link, eff] : linkGates) {
        LinkSensitivity record;
        record.link = link;
        const topology::Link &ends = graph.links()[link];
        record.q0 = ends.a;
        record.q1 = ends.b;
        record.effectiveGates = eff;
        record.error2q = snapshot.linkError(link);
        profile.links.push_back(record);
    }

    // The closed-form log PST, summed qubit terms first (the vaqd
    // block serialises these bits). log1p keeps the small-error
    // regime exact; a dead parameter (error rate 1) yields -inf,
    // matching the product form's exact zero.
    double logPst = 0.0;
    for (const QubitSensitivity &q : profile.qubits) {
        if (q.oneQubitGates > 0.0)
            logPst -= q.error1qMass();
        if (q.measurements > 0.0)
            logPst -= q.readoutMass();
        logPst -= q.t1Mass();
    }
    for (const LinkSensitivity &l : profile.links)
        logPst -= l.contribution();
    profile.logPst = logPst;
    return profile;
}

} // namespace vaq::analysis

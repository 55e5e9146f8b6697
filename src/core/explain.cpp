#include "core/explain.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/sensitivity.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace vaq::core
{

std::string
explainMapping(const MappedCircuit &mapped,
               const topology::CouplingGraph &graph,
               const calibration::Snapshot &snapshot)
{
    std::ostringstream oss;
    oss << "=== mapping report (" << mapped.policyName << " on "
        << graph.name() << ") ===\n\n";

    // --- Placement. ---
    TextTable placement({"program qubit", "initial phys",
                         "final phys", "readout err", "T1 (us)"});
    for (int q = 0; q < mapped.initial.numProg(); ++q) {
        const int p0 = mapped.initial.phys(q);
        const auto &cal = snapshot.qubit(p0);
        placement.addRow({std::to_string(q), std::to_string(p0),
                          std::to_string(mapped.final.phys(q)),
                          formatDouble(cal.readoutError, 3),
                          formatDouble(cal.t1Us, 1)});
    }
    oss << placement.render() << "\n";

    // --- Link usage, busiest first (ties in link order). ---
    const analysis::DataflowAnalysis dataflow(mapped.physical,
                                              snapshot.durations);
    const analysis::SensitivityProfile profile =
        analysis::analyzeSensitivity(dataflow, graph, snapshot);
    std::vector<analysis::LinkSensitivity> usage = profile.links;
    std::stable_sort(usage.begin(), usage.end(),
                     [](const auto &a, const auto &b) {
                         return a.effectiveGates > b.effectiveGates;
                     });

    TextTable links({"link", "2q error", "CNOT-equivalents",
                     "expected loss"});
    for (const analysis::LinkSensitivity &l : usage) {
        const double loss =
            1.0 - std::pow(1.0 - l.error2q, l.effectiveGates);
        links.addRow({"Q" + std::to_string(l.q0) + "-Q" +
                          std::to_string(l.q1),
                      formatDouble(l.error2q, 3),
                      std::to_string(
                          static_cast<std::size_t>(l.effectiveGates)),
                      formatDouble(loss, 3)});
    }
    oss << links.render() << "\n";

    // --- Attribution: each factor is exp(-mass) over one kind. ---
    const auto factor = [&profile](analysis::ParamKind kind) {
        return formatDouble(std::exp(-profile.massOf(kind)), 5);
    };
    oss << "inserted SWAPs : " << mapped.insertedSwaps << "\n";
    oss << "PST estimate   : " << formatDouble(profile.pst(), 5)
        << "\n";
    oss << "  2q gates     : "
        << factor(analysis::ParamKind::Error2q) << "\n";
    oss << "  1q gates     : "
        << factor(analysis::ParamKind::Error1q) << "\n";
    oss << "  readout      : "
        << factor(analysis::ParamKind::Readout) << "\n";
    oss << "  coherence    : " << factor(analysis::ParamKind::T1)
        << "\n";
    return oss.str();
}

} // namespace vaq::core

#include "calibration/sanitize.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

#include "common/error.hpp"

namespace vaq::calibration
{

std::string
QuarantineReport::summary() const
{
    std::ostringstream oss;
    oss << "quarantined " << qubits.size() << " qubit(s), "
        << links.size() << " link(s)";
    if (durationsReset)
        oss << ", durations reset";
    if (!qubits.empty()) {
        oss << "; qubits:";
        for (const QuarantinedQubit &q : qubits)
            oss << " " << q.qubit;
    }
    if (!links.empty()) {
        oss << "; links:";
        for (const QuarantinedLink &l : links)
            oss << " " << l.a << "-" << l.b;
    }
    return oss.str();
}

std::string
qubitDefect(const QubitCalibration &cal)
{
    if (!std::isfinite(cal.t1Us) || !std::isfinite(cal.t2Us) ||
        !std::isfinite(cal.error1q) ||
        !std::isfinite(cal.readoutError))
        return "non-finite calibration value";
    if (cal.t1Us <= kMinCoherenceUs || cal.t2Us <= kMinCoherenceUs)
        return "zero coherence";
    if (cal.error1q < 0.0 || cal.error1q > 1.0 ||
        cal.readoutError < 0.0 || cal.readoutError > 1.0)
        return "error outside [0, 1]";
    if (cal.error1q >= kDeadErrorThreshold)
        return "1q error at dead threshold";
    if (cal.readoutError >= kDeadErrorThreshold)
        return "readout at dead threshold";
    return {};
}

std::string
linkDefect(double error)
{
    if (!std::isfinite(error))
        return "non-finite link error";
    if (error < 0.0 || error > 1.0)
        return "link error outside [0, 1]";
    if (error >= kDeadErrorThreshold)
        return "link error at dead threshold";
    return {};
}

namespace
{

/**
 * Largest connected component over the surviving machine, ascending
 * ids; BFS in id order keeps the choice deterministic (first-seen
 * component wins ties).
 */
std::vector<topology::PhysQubit>
largestHealthyComponent(const topology::CouplingGraph &graph,
                        const std::vector<bool> &qubit_dead,
                        const std::vector<bool> &link_dead)
{
    const int n = graph.numQubits();
    // Healthy adjacency: only links that survived quarantine.
    std::vector<std::vector<topology::PhysQubit>> adjacency(
        static_cast<std::size_t>(n));
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        if (link_dead[l])
            continue;
        const topology::Link &link = graph.links()[l];
        adjacency[static_cast<std::size_t>(link.a)].push_back(
            link.b);
        adjacency[static_cast<std::size_t>(link.b)].push_back(
            link.a);
    }

    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::vector<topology::PhysQubit> best;
    for (int start = 0; start < n; ++start) {
        const auto s = static_cast<std::size_t>(start);
        if (seen[s] || qubit_dead[s])
            continue;
        std::vector<topology::PhysQubit> component;
        std::deque<topology::PhysQubit> frontier{start};
        seen[s] = true;
        while (!frontier.empty()) {
            const topology::PhysQubit q = frontier.front();
            frontier.pop_front();
            component.push_back(q);
            for (const topology::PhysQubit next :
                 adjacency[static_cast<std::size_t>(q)]) {
                const auto ns = static_cast<std::size_t>(next);
                if (!seen[ns] && !qubit_dead[ns]) {
                    seen[ns] = true;
                    frontier.push_back(next);
                }
            }
        }
        if (component.size() > best.size())
            best = std::move(component);
    }
    std::sort(best.begin(), best.end());
    return best;
}

} // namespace

SanitizedCalibration
sanitize(const Snapshot &snapshot,
         const topology::CouplingGraph &graph,
         const SanitizeOptions &options)
{
    require(snapshot.numQubits() == graph.numQubits() &&
                snapshot.numLinks() == graph.linkCount(),
            "snapshot does not match graph shape");

    // Aggregate init: Snapshot has no default constructor, so the
    // cleaned copy seeds the struct directly.
    SanitizedCalibration out{snapshot, {}, {}, false};

    const int n = snapshot.numQubits();
    std::vector<bool> qubitDead(static_cast<std::size_t>(n), false);
    for (int q = 0; q < n; ++q) {
        const std::string defect = qubitDefect(snapshot.qubit(q));
        if (defect.empty())
            continue;
        qubitDead[static_cast<std::size_t>(q)] = true;
        out.report.qubits.push_back({q, defect});
        // Pin to finite worst-case values so downstream arithmetic
        // on the full-width snapshot stays NaN-free.
        QubitCalibration &cal = out.snapshot.qubit(q);
        cal.t1Us = cal.t2Us = 2.0 * kMinCoherenceUs;
        cal.error1q = 1.0;
        cal.readoutError = 1.0;
    }

    std::vector<bool> linkDead(graph.linkCount(), false);
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        std::string defect = linkDefect(snapshot.linkError(l));
        if (defect.empty() &&
            (qubitDead[static_cast<std::size_t>(link.a)] ||
             qubitDead[static_cast<std::size_t>(link.b)]))
            defect = "endpoint qubit quarantined";
        if (defect.empty())
            continue;
        linkDead[l] = true;
        out.report.links.push_back({l, link.a, link.b, defect});
        out.snapshot.setLinkError(l, 1.0);
    }

    const GateDurations &d = snapshot.durations;
    if (!std::isfinite(d.oneQubitNs) || d.oneQubitNs <= 0.0 ||
        !std::isfinite(d.twoQubitNs) || d.twoQubitNs <= 0.0 ||
        !std::isfinite(d.measureNs) || d.measureNs <= 0.0) {
        out.snapshot.durations = GateDurations{};
        out.report.durationsReset = true;
    }

    out.healthyRegion =
        largestHealthyComponent(graph, qubitDead, linkDead);
    const auto floor = static_cast<std::size_t>(std::ceil(
        options.minHealthyFraction * static_cast<double>(n)));
    out.usable = out.healthyRegion.size() >= 2 &&
                 out.healthyRegion.size() >= floor;
    return out;
}

} // namespace vaq::calibration

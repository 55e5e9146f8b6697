#include "calibration/schedule.hpp"

#include <algorithm>

namespace vaq::calibration
{

using circuit::Gate;
using circuit::GateKind;

double
Schedule::idleNs(const circuit::Circuit &circuit,
                 const GateDurations &durations, int qubit) const
{
    double busy = 0.0;
    double first = -1.0;
    double last = 0.0;
    const auto &gates = circuit.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.kind == GateKind::BARRIER || !g.touches(qubit))
            continue;
        const double end = startNs[i] + gateDurationNs(g, durations);
        busy += end - startNs[i];
        if (first < 0.0)
            first = startNs[i];
        last = std::max(last, end);
    }
    if (first < 0.0)
        return 0.0;
    return std::max(0.0, (last - first) - busy);
}

Schedule
scheduleAsap(const circuit::Circuit &circuit,
             const GateDurations &durations)
{
    Schedule schedule;
    schedule.startNs.reserve(circuit.size());
    std::vector<double> free(
        static_cast<std::size_t>(circuit.numQubits()), 0.0);
    double barrierNs = 0.0;
    for (const Gate &g : circuit.gates()) {
        if (g.kind == GateKind::BARRIER) {
            for (const double t : free)
                barrierNs = std::max(barrierNs, t);
            schedule.startNs.push_back(barrierNs);
            continue;
        }
        const auto a = static_cast<std::size_t>(g.q0);
        double start = std::max(barrierNs, free[a]);
        if (g.isTwoQubit()) {
            start = std::max(start,
                             free[static_cast<std::size_t>(g.q1)]);
        }
        const double end = start + gateDurationNs(g, durations);
        free[a] = end;
        if (g.isTwoQubit())
            free[static_cast<std::size_t>(g.q1)] = end;
        schedule.startNs.push_back(start);
        schedule.durationNs = std::max(schedule.durationNs, end);
    }
    return schedule;
}

} // namespace vaq::calibration

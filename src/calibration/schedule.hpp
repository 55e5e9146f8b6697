/**
 * @file
 * ASAP timing schedule of a circuit under a snapshot's gate
 * durations.
 *
 * Each operation starts as soon as its operands are free, assuming
 * unlimited classical control parallelism but exclusive qubit use.
 * This is the one schedule behind the idle-aware coherence charge
 * (sim::CoherenceMode::Idle), the dataflow idle windows that lint
 * rule VL009 reads, and the trial latency of the partitioning study
 * (Section 8, STPT = PST / makespan) and of the fleet backends.
 */
#ifndef VAQ_CALIBRATION_SCHEDULE_HPP
#define VAQ_CALIBRATION_SCHEDULE_HPP

#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"

namespace vaq::calibration
{

/** ASAP start times of a circuit's gates and its makespan. */
struct Schedule
{
    /** Start of gate i in nanoseconds, one entry per gate; gate i
     *  ends at startNs[i] + gateDurationNs(gate i). */
    std::vector<double> startNs;
    /** Makespan: the latest gate end. */
    double durationNs = 0.0;

    /**
     * Idle time of `qubit`: the span from the start of its first
     * operation to the end of its last, minus the time its
     * operations take (0 when no operation touches it).
     */
    double idleNs(const circuit::Circuit &circuit,
                  const GateDurations &durations, int qubit) const;
};

/**
 * ASAP-schedule `circuit` with `durations`. Barriers synchronize all
 * qubits and take zero time.
 */
Schedule scheduleAsap(const circuit::Circuit &circuit,
                      const GateDurations &durations);

} // namespace vaq::calibration

#endif // VAQ_CALIBRATION_SCHEDULE_HPP

/**
 * @file
 * Scripted, seeded chaos for the fleet simulator.
 *
 * A FaultPlan is a time-ordered list of fault events to inject into
 * a FleetSim run: machine outages, calibration corruption, latency
 * spikes and partial link quarantine. Every fault kind maps onto the
 * PR-4 ErrorCategory taxonomy (faultCategory), so a job killed by an
 * injected outage fails through exactly the same status/category
 * path as one killed by an organic compile error — there is one
 * failure path, not an "injected" side channel.
 *
 * Plans are either scripted by hand (tests pin exact scenarios) or
 * generated from FaultPlanParams with a seed; equal seeds give equal
 * plans, which is one leg of the fleet determinism contract. The
 * JSON round-trip is the schema the CLI and DESIGN.md §12 document.
 */
#ifndef VAQ_FLEET_FAULT_PLAN_HPP
#define VAQ_FLEET_FAULT_PLAN_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace vaq::fleet
{

/** What a fault event does to its target machine. */
enum class FaultKind
{
    /** Machine hard-down for durationUs: every queued and in-flight
     *  copy on it is failed (ErrorCategory::Internal) and new
     *  placements are refused until the outage ends. */
    Outage,
    /** Calibration data poisoned (non-finite holes over a
     *  `magnitude` fraction of qubits). The machine re-inspects its
     *  snapshot; a Rejected verdict force-opens the circuit breaker
     *  and aborts assigned copies (ErrorCategory::Calibration).
     *  Heals at the next calibration rollover. */
    CalCorruption,
    /** Service-time multiplier `magnitude` for durationUs. Nothing
     *  fails outright — jobs placed during the spike just finish
     *  late, which is how deadline misses (ErrorCategory::Timeout
     *  pressure) enter the system. */
    LatencySpike,
    /** A `magnitude` fraction of links pinned to dead error rates:
     *  the quarantine pass (calibration/sanitize.hpp) prunes them
     *  and compiles land Degraded in the healthy region
     *  (ErrorCategory::Calibration when unusable). Heals at the
     *  next rollover. */
    PartialQuarantine,
};

/** Stable lowercase name ("outage", "cal-corruption", ...). */
const char *faultKindName(FaultKind kind);

/** Parse a faultKindName spelling; throws VaqError if unknown. */
FaultKind faultKindFromName(const std::string &name);

/**
 * The ErrorCategory a fault surfaces as when it fails a job —
 * injected and organic failures share one taxonomy.
 */
ErrorCategory faultCategory(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    double timeUs = 0.0;      ///< virtual start time (microseconds)
    std::size_t machine = 0;  ///< backend index within the fleet
    FaultKind kind = FaultKind::Outage;
    /** Window length; 0 for effects that persist until the next
     *  calibration rollover (corruption, quarantine). */
    double durationUs = 0.0;
    /** Kind-specific knob: corrupted-qubit fraction, latency
     *  factor, or quarantined-link fraction. Unused for outages. */
    double magnitude = 0.0;
};

/** A complete chaos script, sorted by (timeUs, machine, kind). */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }
    std::size_t size() const { return events.size(); }
};

/** Knobs for generateFaultPlan(). */
struct FaultPlanParams
{
    /** Fault windows are drawn inside [0, horizonUs). */
    double horizonUs = 2e6;
    /** Expected fault count per machine over the horizon. */
    double faultsPerMachine = 3.0;
    /** Relative kind weights (renormalized; negative is an error). */
    double outageWeight = 0.4;
    double corruptionWeight = 0.2;
    double spikeWeight = 0.2;
    double quarantineWeight = 0.2;
    /** Mean window lengths (exponential draws). */
    double meanOutageUs = 1.5e5;
    double meanSpikeUs = 2e5;
};

/**
 * Draw a deterministic plan: per machine, a Poisson-ish stream of
 * faults with exponential start gaps and weighted kinds, merged and
 * sorted. Equal (machines, params, seed) give byte-equal plans.
 */
FaultPlan generateFaultPlan(std::size_t machines,
                            const FaultPlanParams &params,
                            std::uint64_t seed);

/// Deterministic JSON round-trip (the FaultPlan schema).
json::Value toJson(const FaultEvent &event);
json::Value toJson(const FaultPlan &plan);
FaultEvent faultEventFromJson(const json::Cursor &cursor);
FaultPlan faultPlanFromJson(const json::Cursor &cursor);

} // namespace vaq::fleet

#endif // VAQ_FLEET_FAULT_PLAN_HPP

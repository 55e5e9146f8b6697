/**
 * @file
 * Calibration sanitizer and quarantine pass.
 *
 * Real characterization archives are messy: links drift to error
 * rates near 1.0 (effectively dead), readout on a qubit collapses,
 * exports contain NaN/Inf holes. Snapshot::validate() rejects such
 * a snapshot wholesale, which is the right call for a single
 * compile but fatal for a batch service replaying a 52-day series —
 * one bad cycle must degrade, not abort.
 *
 * sanitize() turns a suspect snapshot into a structured verdict
 * instead of an exception:
 *
 *  - every dead or non-finite qubit/link is quarantined with a
 *    reason (QuarantineReport),
 *  - a cleaned copy of the snapshot is produced whose quarantined
 *    entries are pinned to finite worst-case values, so downstream
 *    arithmetic never sees NaN,
 *  - the largest connected component of healthy qubits over healthy
 *    links becomes the degraded machine view (healthyRegion), the
 *    region a Degraded snapshot's compiles map onto,
 *  - `usable` says whether enough of the machine survived to be
 *    worth compiling for at all.
 *
 * core::inspectCalibration consumes this: a usable result becomes a
 * Degraded CalibrationContext over the healthy region (jobs come
 * back degraded instead of failed), an unusable one a Rejected
 * verdict whose jobs fail with the quarantine summary.
 */
#ifndef VAQ_CALIBRATION_SANITIZE_HPP
#define VAQ_CALIBRATION_SANITIZE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::calibration
{

/** An error probability at or above this is "dead" (the paper's
 *  error ≈ 1.0 links; 0.95 leaves margin for jitter). */
inline constexpr double kDeadErrorThreshold = 0.95;
/** Coherence times at or below this (microseconds) count as "zero
 *  coherence". */
inline constexpr double kMinCoherenceUs = 1e-3;

/**
 * Why sanitize() quarantines a qubit record (non-finite, zero
 * coherence, an error outside [0, 1] or at the dead threshold), or
 * empty when the record is fine.
 */
std::string qubitDefect(const QubitCalibration &cal);

/** Why sanitize() quarantines a link error on its own, or empty. */
std::string linkDefect(double error);

/** Usability threshold. */
struct SanitizeOptions
{
    /** A snapshot is usable when the healthy component keeps at
     *  least this fraction of the machine (and >= 2 qubits). */
    double minHealthyFraction = 0.25;
};

/** One quarantined qubit with the reason it was pulled. */
struct QuarantinedQubit
{
    int qubit;
    std::string reason;
};

/** One quarantined link with the reason it was pulled. */
struct QuarantinedLink
{
    std::size_t link;
    topology::PhysQubit a;
    topology::PhysQubit b;
    std::string reason;
};

/** Everything the sanitizer pulled out of a snapshot. */
struct QuarantineReport
{
    std::vector<QuarantinedQubit> qubits;
    std::vector<QuarantinedLink> links;
    /** Gate durations were non-finite/non-positive and were reset
     *  to the defaults. */
    bool durationsReset = false;

    /** True when nothing was quarantined. */
    bool clean() const
    {
        return qubits.empty() && links.empty() && !durationsReset;
    }

    /** One-line human-readable digest for logs and skip reasons. */
    std::string summary() const;
};

/** Sanitizer verdict: cleaned data plus the degraded machine view. */
struct SanitizedCalibration
{
    /** Copy of the input with every quarantined entry pinned to a
     *  finite worst-case value; always passes Snapshot::validate(). */
    Snapshot snapshot;
    QuarantineReport report;
    /** Largest connected component of healthy qubits over healthy
     *  links, ascending qubit ids. */
    std::vector<topology::PhysQubit> healthyRegion;
    /** Enough machine survived (see SanitizeOptions). */
    bool usable = false;
};

/**
 * Run the quarantine pass. Never throws on bad calibration values —
 * that is the point — only on shape mismatch between snapshot and
 * graph (a usage error).
 */
SanitizedCalibration
sanitize(const Snapshot &snapshot,
         const topology::CouplingGraph &graph,
         const SanitizeOptions &options = {});

} // namespace vaq::calibration

#endif // VAQ_CALIBRATION_SANITIZE_HPP

/**
 * @file
 * Fleet run summaries and the process-wide stats hub.
 *
 * FleetSummary is the deterministic record of one FleetSim run: job
 * outcomes, retry/failover counts, per-machine placement and store
 * counters, and the throughput/latency/fidelity frontier numbers.
 * Its JSON form (deterministic member order, shortest-round-trip
 * numbers) is the byte-identity surface of the chaos determinism
 * contract — two runs with the same seed and any thread count must
 * produce byte-equal fingerprint() strings, so nothing wall-clock-
 * or thread-dependent may ever be added to toJson().
 *
 * StatsHub is a tiny process-global registry the vaqd daemon reads:
 * completed runs publish their summaries under a name, and GET
 * /v1/fleet/stats snapshots them.
 */
#ifndef VAQ_FLEET_STATS_HPP
#define VAQ_FLEET_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace vaq::fleet
{

/** Per-machine slice of a fleet run. */
struct MachineSummary
{
    std::string name;
    std::size_t placements = 0; ///< copies placed (incl. retries)
    std::size_t completed = 0;  ///< copies that finished service
    std::size_t failed = 0;     ///< copies failed on this machine
    std::size_t breakerOpens = 0;
    std::uint64_t rollovers = 0; ///< calibration epochs rolled
    double downtimeUs = 0.0;     ///< injected outage time
    double busyUs = 0.0;         ///< virtual service time consumed
    std::size_t storeExactHits = 0;
    std::size_t storeDeltaReuse = 0;
    std::size_t storeMisses = 0;
};

/** Deterministic record of one fleet run. */
struct FleetSummary
{
    std::string policy;    ///< placementPolicyName
    bool failover = true;  ///< retry/failover/breaker layer on?
    std::size_t jobs = 0;
    std::size_t completed = 0;      ///< any copy succeeded
    std::size_t withinDeadline = 0; ///< ... before the job deadline
    std::size_t failed = 0;
    std::size_t timedOut = 0;
    std::size_t degradedCopies = 0; ///< copies served Degraded
    std::size_t retries = 0;        ///< re-placements after failure
    std::size_t failovers = 0;      ///< retries on a new machine
    std::size_t replicatedJobs = 0; ///< jobs split into two copies
    std::size_t faultsInjected = 0;
    double successfulTrials = 0.0; ///< sum over copies: shots * pst
    double makespanUs = 0.0;       ///< last copy completion time
    double stpt = 0.0;             ///< successfulTrials / makespanUs
    double meanLatencyUs = 0.0;    ///< completed jobs: finish-arrival
    std::vector<MachineSummary> machines;

    json::Value toJson() const;
    /** Compact JSON bytes — the byte-identity surface. */
    std::string fingerprint() const;
};

/** Process-global registry of published fleet summaries. */
class StatsHub
{
  public:
    static StatsHub &global();

    /** Publish (or replace) the summary for `name`. */
    void publish(const std::string &name,
                 const FleetSummary &summary);

    /** Snapshot: {"fleets": {name: summary, ...}} with names in
     *  publication order. */
    json::Value snapshot() const;

  private:
    mutable std::mutex _mutex;
    std::vector<std::pair<std::string, json::Value>> _published;
};

} // namespace vaq::fleet

#endif // VAQ_FLEET_STATS_HPP

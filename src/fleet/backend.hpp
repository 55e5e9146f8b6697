/**
 * @file
 * One fleet backend: a machine topology plus everything that makes
 * it a *drifting* machine — its own synthetic calibration series,
 * quarantine state, per-machine artifact store (delta recompiles
 * across epochs), availability windows and circuit breaker.
 *
 * Calibration evolves two ways:
 *
 *  - rollover(): a new calibration epoch. Only a seeded sparse
 *    subset of qubits/links takes fresh values (sparseDriftFraction)
 *    — full redraws would invalidate every stored artifact's
 *    calibration dependencies and delta recompilation (PR 6) would
 *    never fire, which is not how real devices drift (Section 3.4:
 *    strong links stay strong). A rollover also heals any injected
 *    corruption/quarantine: faults mutate the *published* snapshot,
 *    rollovers republish from the pristine series.
 *  - fault mutation: corruptCalibration() punches non-finite holes,
 *    quarantineLinks() pins links dead. Both re-inspect the snapshot
 *    once (core::inspectCalibration), so the scheduler sees the
 *    verdicts organic bad data produces.
 *
 * Every snapshot change rebuilds the machine's calibration context
 * (core/compile_cache.hpp), whose verdict and tables compile() and
 * prewarm() share, derived from its own snapshot only.
 *
 * Backends are identity objects (the adapter and compile context
 * hold references into them): non-copyable, non-movable.
 */
#ifndef VAQ_FLEET_BACKEND_HPP
#define VAQ_FLEET_BACKEND_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "calibration/synthetic.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_request.hpp"
#include "core/mapper.hpp"
#include "fleet/breaker.hpp"
#include "store/adapter.hpp"
#include "store/artifact_store.hpp"
#include "topology/coupling_graph.hpp"
#include "topology/layouts.hpp"

namespace vaq::fleet
{

/** Static description of one machine in the fleet. */
struct BackendSpec
{
    std::string name = "machine";
    topology::CouplingGraph graph = topology::linear(2);
    /** Seed of the machine's private calibration series. */
    std::uint64_t calibrationSeed = 7;
    /** Execution speed multiplier (2.0 = trials run twice as fast);
     *  models heterogeneous control electronics. */
    double serviceRate = 1.0;
    /** Fraction of qubits/links redrawn per rollover. */
    double sparseDriftFraction = 0.3;
    /** Synthetic population statistics. */
    calibration::SyntheticParams synthetic;
};

/** A machine with drifting calibration, a store and a breaker. */
class Backend
{
  public:
    /** `stalenessTol` > 0 lets the machine's artifact store serve
     *  mappings on a certified staleness bound across epochs
     *  (store::StoreOptions::stalenessTol). */
    Backend(BackendSpec spec, const core::PolicySpec &policy,
            std::size_t storeEntries, BreakerOptions breaker,
            double stalenessTol = 0.0);
    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    const std::string &name() const { return _spec.name; }
    const topology::CouplingGraph &graph() const
    {
        return _spec.graph;
    }
    double serviceRate() const { return _spec.serviceRate; }
    const calibration::Snapshot &snapshot() const
    {
        return _snapshot;
    }
    const core::SnapshotHealth &health() const
    {
        return _calibration->health();
    }

    /** Calibration epoch counter (1 after construction). */
    std::uint64_t epoch() const { return _epoch; }
    /** Bumps on every snapshot change (rollover *or* fault
     *  mutation); keys the scheduler's prediction cache. */
    std::uint64_t calVersion() const { return _calVersion; }

    /** Publish the next calibration epoch (sparse drift; heals any
     *  injected corruption/quarantine). */
    void rollover();

    /** Poison a `fraction` of qubits with non-finite calibration
     *  (seeded by `salt`); persists until the next rollover. */
    void corruptCalibration(double fraction, std::uint64_t salt);

    /** Pin a `fraction` of links to dead error rates (seeded by
     *  `salt`); persists until the next rollover. */
    void quarantineLinks(double fraction, std::uint64_t salt);

    /// @name Availability (driven by the scheduler's fault handling)
    /// @{
    bool up() const { return !_down; }
    void setDown(bool down) { _down = down; }
    /** Service-time multiplier active at nowUs (latency spikes). */
    double latencyFactor(double nowUs) const;
    void setLatencySpike(double factor, double untilUs);
    /// @}

    /** When the machine's service queue drains (virtual time). */
    double busyUntilUs = 0.0;

    CircuitBreaker breaker;

    /**
     * Compile `logical` against the current snapshot through the
     * canonical core::compile pipeline, consulting this machine's
     * artifact store. The result is offered back to the store,
     * which keeps fresh Ok compiles.
     */
    core::CompileResult compile(const circuit::Circuit &logical);

    /**
     * Epoch-rollover recompile burst: compile every circuit through
     * the store with a BatchCompiler on `threads` workers. Misses
     * are recorded, so subsequent placements hit the store; across
     * later epochs unchanged calibration dependencies come back via
     * delta reuse. Bit-identical for any thread count (the
     * BatchCompiler contract).
     */
    void prewarm(const std::vector<circuit::Circuit> &circuits,
                 std::size_t threads);

    /** Per-trial latency of a mapped circuit on this machine,
     *  microseconds of virtual time (schedule makespan / rate). */
    double trialLatencyUs(const core::MappedCircuit &mapped) const;

    store::StoreStats storeStats() const { return _store.stats(); }

  private:
    void reinspect();

    BackendSpec _spec;
    core::PolicySpec _policy;
    calibration::SyntheticSource _source;
    /** Last published epoch, before fault mutations. */
    calibration::Snapshot _pristine;
    /** What compiles actually see (may be fault-mutated). */
    calibration::Snapshot _snapshot;
    /** _snapshot inspected; rebuilt whenever _snapshot changes. */
    std::shared_ptr<const core::CalibrationContext> _calibration;
    core::Mapper _mapper;
    std::vector<core::Mapper> _fallbacks;
    store::ArtifactStore _store;
    std::unique_ptr<store::ArtifactCacheAdapter> _adapter;
    std::uint64_t _epoch = 1;
    std::uint64_t _calVersion = 1;
    std::uint64_t _rollovers = 0;
    bool _down = false;
    double _latencyFactor = 1.0;
    double _latencyUntilUs = 0.0;
};

/**
 * The heterogeneous reference fleet: IBM Q5 Tenerife, Q20 Tokyo,
 * Falcon-27 and a synthetic 4x4 grid, with distinct calibration
 * seeds and service rates derived from `seed`.
 */
std::vector<BackendSpec> standardFleet(std::uint64_t seed = 7);

} // namespace vaq::fleet

#endif // VAQ_FLEET_BACKEND_HPP

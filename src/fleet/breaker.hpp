/**
 * @file
 * Per-machine circuit breaker over virtual (simulated) time.
 *
 * Classic three-state breaker, driven entirely by the fleet
 * scheduler's virtual clock so runs are deterministic:
 *
 *       Closed --(failure rate over window >= threshold)--> Open
 *       Open   --(cooldownUs elapsed)-------------------> HalfOpen
 *       HalfOpen --(halfOpenProbes successes)-----------> Closed
 *       HalfOpen --(any probe failure)------------------> Open
 *
 * Closed admits every placement and tracks outcomes in a sliding
 * window; Open refuses placements until the cooldown elapses;
 * HalfOpen admits at most `halfOpenProbes` concurrent probe copies
 * and closes only when all of them succeed. forceOpen() is the
 * quarantine hook: a backend whose calibration is Rejected trips its
 * breaker immediately instead of waiting for failures to accumulate.
 */
#ifndef VAQ_FLEET_BREAKER_HPP
#define VAQ_FLEET_BREAKER_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace vaq::fleet
{

/** Breaker thresholds. */
struct BreakerOptions
{
    /** Sliding outcome window length (Closed state). */
    std::size_t windowSize = 16;
    /** Minimum outcomes in the window before the rate can trip. */
    std::size_t minSamples = 4;
    /** Failure rate at or above this opens the breaker. */
    double failureThreshold = 0.5;
    /** Open -> HalfOpen after this much virtual time. */
    double cooldownUs = 5e4;
    /** Probe copies admitted (and successes required) in HalfOpen. */
    std::size_t halfOpenProbes = 2;
};

/** Breaker states (see file comment for the transition diagram). */
enum class BreakerState
{
    Closed,
    Open,
    HalfOpen,
};

/** Deterministic virtual-time circuit breaker. */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(BreakerOptions options = {});

    /** State after lazily applying the Open->HalfOpen cooldown. */
    BreakerState state(double nowUs) const;

    /** Would acquire() succeed at nowUs? Non-mutating, used while
     *  ranking candidate machines. */
    bool wouldAllow(double nowUs) const;

    /**
     * Commit a placement. Transitions Open->HalfOpen when the
     * cooldown has elapsed and reserves a probe slot in HalfOpen.
     * Returns false (and changes nothing beyond the lazy
     * transition) when the breaker refuses the placement.
     */
    bool acquire(double nowUs);

    /** Outcome of an admitted copy. */
    void recordSuccess(double nowUs);
    void recordFailure(double nowUs);

    /** Trip immediately (quarantine/corruption feedback). */
    void forceOpen(double nowUs);

    /** Times the breaker opened (telemetry). */
    std::size_t opens() const { return _opens; }

  private:
    void open(double nowUs);
    void applyCooldown(double nowUs) const;
    double failureRate() const;

    BreakerOptions _options;
    // Lazy Open->HalfOpen: state mutates inside const observers
    // once the cooldown elapses, so every reader agrees on the
    // post-cooldown state without an explicit tick event.
    mutable BreakerState _state = BreakerState::Closed;
    mutable std::size_t _probesInFlight = 0;
    mutable std::size_t _probeSuccesses = 0;
    double _openedAtUs = 0.0;
    std::vector<bool> _window; ///< ring buffer of outcomes
    std::size_t _windowNext = 0;
    std::size_t _windowFill = 0;
    std::size_t _windowFailures = 0;
    std::size_t _opens = 0;
};

} // namespace vaq::fleet

#endif // VAQ_FLEET_BREAKER_HPP

/**
 * @file
 * Process-wide telemetry registry: counters, gauges and fixed-bucket
 * latency histograms.
 *
 * The compile/simulate pipeline is instrumented at every hot seam
 * (mapper stages, path caches, the batch compiler, the parallel
 * trial engine), but NISQ compilation is itself a latency-sensitive
 * service, so telemetry is **disabled by default** and every
 * instrumentation site reduces to one relaxed atomic load plus a
 * branch (`obs::enabled()`). Only when an operator turns the flag on
 * (`vaqc --metrics-out`, or `obs::setEnabled(true)`) do sites pay
 * for the name lookup and the atomic bumps.
 *
 * Instruments are created on first use and live for the process
 * lifetime, so call sites may cache references. All instruments are
 * thread-safe:
 *   - Counter / Gauge: single relaxed atomics.
 *   - Histogram: atomic per-bucket counts plus a mutex-guarded
 *     RunningStats (Welford) for exact mean/min/max.
 *
 * Exporters for the registry snapshot live in obs/export.hpp.
 */
#ifndef VAQ_OBS_METRICS_HPP
#define VAQ_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/statistics.hpp"

namespace vaq::obs
{

namespace detail
{
/** The process-wide telemetry switch (see enabled()). */
extern std::atomic<bool> g_enabled;
} // namespace detail

/**
 * Is telemetry collection on? This is the zero-overhead gate: the
 * disabled fast path is this one relaxed load and a branch.
 */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn telemetry collection on or off process-wide. */
void setEnabled(bool on);

/** Monotonic counter (events, hits, trials). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** Last-write-wins instantaneous value (queue depth, rate). */
class Gauge
{
  public:
    void set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
    }

    /** Atomic increment (negative deltas decrement). */
    void add(double delta)
    {
        double cur = _value.load(std::memory_order_relaxed);
        while (!_value.compare_exchange_weak(
            cur, cur + delta, std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> _value{0.0};
};

/** Frozen histogram state (what exporters consume). */
struct HistogramSnapshot
{
    /** Inclusive bucket upper bounds; a final +inf bucket is
     *  implicit (counts has bounds.size() + 1 entries). */
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Fixed-bucket histogram with exact streaming moments. Bucket
 * counts are lock-free; the RunningStats tail (mean/min/max) takes
 * a short mutex per record.
 */
class Histogram
{
  public:
    /** Default latency bounds, in seconds: 1 us .. 10 s decades. */
    static std::vector<double> defaultLatencyBounds();

    explicit Histogram(std::vector<double> bounds =
                           defaultLatencyBounds());

    /** Fold one sample (same unit as the bounds). */
    void record(double value);

    HistogramSnapshot snapshot() const;

    void reset();

  private:
    std::vector<double> _bounds;
    std::unique_ptr<std::atomic<std::uint64_t>[]> _buckets;
    mutable std::mutex _statsMutex;
    RunningStats _stats;
};

/** Frozen registry state: every instrument by name. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    bool empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }
};

/**
 * Named-instrument registry. Lookup interns the name under a mutex
 * and returns a reference that stays valid for the registry's
 * lifetime, so hot sites can look up once and bump forever.
 *
 * Naming convention: dotted component paths, with an optional
 * Prometheus-style label suffix kept inside the name string, e.g.
 * `cache.matrix.hits` or `mapper.portfolio.winner{config="vqm"}`.
 * The exporters split the label block off for formats that support
 * labels natively.
 */
class Registry
{
  public:
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);

    /** The bounds argument applies on first creation only. */
    Histogram &histogram(std::string_view name,
                         std::vector<double> bounds =
                             Histogram::defaultLatencyBounds());

    MetricsSnapshot snapshot() const;

    /** Zero every instrument (handles stay valid). */
    void reset();

    /** The process-wide registry all instrumentation writes to. */
    static Registry &global();

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        _counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        _gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        _histograms;
};

/** Bump a global counter iff telemetry is enabled. */
inline void
count(std::string_view name, std::uint64_t n = 1)
{
    if (!enabled())
        return;
    Registry::global().counter(name).add(n);
}

/** Set a global gauge iff telemetry is enabled. */
inline void
gaugeSet(std::string_view name, double value)
{
    if (!enabled())
        return;
    Registry::global().gauge(name).set(value);
}

/** Record into a global histogram iff telemetry is enabled. */
inline void
observe(std::string_view name, double value)
{
    if (!enabled())
        return;
    Registry::global().histogram(name).record(value);
}

/**
 * RAII stage timer: records elapsed seconds into a global histogram
 * on destruction. Inert (no clock read, no allocation) when
 * telemetry is off at construction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::string_view name)
        : ScopedTimer(name, enabled())
    {
    }

    /** Explicit gate, for sites driven by per-compile options. */
    ScopedTimer(std::string_view name, bool active);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    std::string_view _name;
    std::int64_t _startNs = 0;
    bool _active;
};

} // namespace vaq::obs

#endif // VAQ_OBS_METRICS_HPP

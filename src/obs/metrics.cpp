#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>

namespace vaq::obs
{

namespace detail
{
std::atomic<bool> g_enabled{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<double>
Histogram::defaultLatencyBounds()
{
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
}

Histogram::Histogram(std::vector<double> bounds)
    : _bounds(std::move(bounds))
{
    std::sort(_bounds.begin(), _bounds.end());
    _bounds.erase(std::unique(_bounds.begin(), _bounds.end()),
                  _bounds.end());
    _buckets = std::make_unique<std::atomic<std::uint64_t>[]>(
        _bounds.size() + 1);
    for (std::size_t i = 0; i <= _bounds.size(); ++i)
        _buckets[i].store(0, std::memory_order_relaxed);
}

void
Histogram::record(double value)
{
    auto it =
        std::lower_bound(_bounds.begin(), _bounds.end(), value);
    std::size_t index =
        static_cast<std::size_t>(it - _bounds.begin());
    _buckets[index].fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(_statsMutex);
    _stats.add(value);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.bounds = _bounds;
    snap.counts.resize(_bounds.size() + 1);
    for (std::size_t i = 0; i <= _bounds.size(); ++i)
        snap.counts[i] =
            _buckets[i].load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(_statsMutex);
    snap.count = static_cast<std::uint64_t>(_stats.count());
    snap.mean = _stats.count() > 0 ? _stats.mean() : 0.0;
    snap.sum = snap.mean * static_cast<double>(_stats.count());
    snap.min = _stats.count() > 0 ? _stats.min() : 0.0;
    snap.max = _stats.count() > 0 ? _stats.max() : 0.0;
    return snap;
}

void
Histogram::reset()
{
    for (std::size_t i = 0; i <= _bounds.size(); ++i)
        _buckets[i].store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(_statsMutex);
    _stats = RunningStats{};
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _counters.find(name);
    if (it == _counters.end())
        it = _counters
                 .emplace(std::string(name),
                          std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _gauges.find(name);
    if (it == _gauges.end())
        it = _gauges
                 .emplace(std::string(name),
                          std::make_unique<Gauge>())
                 .first;
    return *it->second;
}

Histogram &
Registry::histogram(std::string_view name,
                    std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _histograms.find(name);
    if (it == _histograms.end())
        it = _histograms
                 .emplace(std::string(name),
                          std::make_unique<Histogram>(
                              std::move(bounds)))
                 .first;
    return *it->second;
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(_mutex);
    for (const auto &[name, counter] : _counters)
        snap.counters.emplace(name, counter->value());
    for (const auto &[name, gauge] : _gauges)
        snap.gauges.emplace(name, gauge->value());
    for (const auto &[name, histogram] : _histograms)
        snap.histograms.emplace(name, histogram->snapshot());
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[name, counter] : _counters)
        counter->reset();
    for (auto &[name, gauge] : _gauges)
        gauge->reset();
    for (auto &[name, histogram] : _histograms)
        histogram->reset();
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

} // namespace

ScopedTimer::ScopedTimer(std::string_view name, bool active)
    : _name(name), _active(active && enabled())
{
    if (_active)
        _startNs = nowNs();
}

ScopedTimer::~ScopedTimer()
{
    if (!_active)
        return;
    double seconds =
        static_cast<double>(nowNs() - _startNs) * 1e-9;
    Registry::global().histogram(_name).record(seconds);
}

} // namespace vaq::obs

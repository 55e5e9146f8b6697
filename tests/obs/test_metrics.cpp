#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace vaq::obs
{
namespace
{

/** Flip the global switch for one test, restoring it after. */
class EnabledGuard
{
  public:
    explicit EnabledGuard(bool on) : _previous(enabled())
    {
        setEnabled(on);
    }
    ~EnabledGuard() { setEnabled(_previous); }

  private:
    bool _previous;
};

TEST(ObsMetrics, DisabledByDefault)
{
    EXPECT_FALSE(enabled());
}

TEST(ObsMetrics, CounterGaugeBasics)
{
    Registry registry;
    Counter &c = registry.counter("a.count");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);

    Gauge &g = registry.gauge("a.gauge");
    g.set(2.5);
    g.add(-0.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(ObsMetrics, RegistryReturnsStableReferences)
{
    Registry registry;
    Counter &first = registry.counter("stable");
    for (int i = 0; i < 100; ++i)
        registry.counter("filler." + std::to_string(i));
    EXPECT_EQ(&first, &registry.counter("stable"));
}

TEST(ObsMetrics, HistogramBucketsAndMoments)
{
    Histogram h({1.0, 10.0, 100.0});
    h.record(0.5);   // <= 1
    h.record(5.0);   // <= 10
    h.record(50.0);  // <= 100
    h.record(500.0); // overflow
    const HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 1u);
    EXPECT_EQ(snap.counts[1], 1u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.counts[3], 1u);
    EXPECT_EQ(snap.count, 4u);
    EXPECT_DOUBLE_EQ(snap.min, 0.5);
    EXPECT_DOUBLE_EQ(snap.max, 500.0);
    EXPECT_DOUBLE_EQ(snap.mean, 555.5 / 4.0);
}

TEST(ObsMetrics, FreeHelpersAreGatedOnEnabled)
{
    // With telemetry off the helpers must not touch the registry.
    EnabledGuard guard(false);
    count("gated.counter", 5);
    gaugeSet("gated.gauge", 1.0);
    observe("gated.histogram", 0.5);
    const MetricsSnapshot snap = Registry::global().snapshot();
    EXPECT_EQ(snap.counters.count("gated.counter"), 0u);
    EXPECT_EQ(snap.gauges.count("gated.gauge"), 0u);
    EXPECT_EQ(snap.histograms.count("gated.histogram"), 0u);
}

TEST(ObsMetrics, ScopedTimerRecordsWhenEnabled)
{
    Registry &global = Registry::global();
    EnabledGuard guard(true);
    {
        ScopedTimer timer("obs.test.timer.seconds");
    }
    const HistogramSnapshot snap =
        global.histogram("obs.test.timer.seconds").snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_GE(snap.min, 0.0);
    global.reset();
}

TEST(ObsMetrics, ConcurrentBumpsAreExact)
{
    // N threads hammer one counter, one gauge and one histogram;
    // totals must come out exact. Runs under the TSan `parallel`
    // ctest label, so any racy registry access also fails there.
    Registry registry;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            Counter &c = registry.counter("parallel.count");
            Gauge &g = registry.gauge("parallel.gauge");
            Histogram &h = registry.histogram("parallel.hist");
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                g.add(1.0);
                h.record(static_cast<double>(t));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("parallel.count"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(snap.gauges.at("parallel.gauge"),
                     static_cast<double>(kThreads * kPerThread));
    EXPECT_EQ(snap.histograms.at("parallel.hist").count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ObsMetrics, ResetZeroesEverything)
{
    Registry registry;
    registry.counter("r.c").add(3);
    registry.gauge("r.g").set(4.0);
    registry.histogram("r.h").record(1.0);
    registry.reset();
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("r.c"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("r.g"), 0.0);
    EXPECT_EQ(snap.histograms.at("r.h").count, 0u);
}

} // namespace
} // namespace vaq::obs

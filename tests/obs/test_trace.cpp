#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"

namespace vaq::obs
{
namespace
{

class EnabledGuard
{
  public:
    explicit EnabledGuard(bool on) : _previous(enabled())
    {
        setEnabled(on);
        drainTrace();
    }
    ~EnabledGuard()
    {
        drainTrace();
        setEnabled(_previous);
    }

  private:
    bool _previous;
};

const SpanRecord &
findSpan(const std::vector<SpanRecord> &spans,
         const std::string &name)
{
    const auto it = std::find_if(
        spans.begin(), spans.end(),
        [&](const SpanRecord &s) { return s.name == name; });
    EXPECT_NE(it, spans.end()) << "span not recorded: " << name;
    return *it;
}

TEST(ObsTrace, DisabledSpansRecordNothing)
{
    EnabledGuard guard(false);
    {
        Span span("invisible");
    }
    EXPECT_TRUE(drainTrace().empty());
}

TEST(ObsTrace, NestingLinksParentAndChild)
{
    EnabledGuard guard(true);
    {
        Span outer("outer");
        {
            Span middle("middle");
            Span inner("inner");
        }
        Span sibling("sibling");
    }
    const std::vector<SpanRecord> spans = drainTrace();
    ASSERT_EQ(spans.size(), 4u);

    const SpanRecord &outer = findSpan(spans, "outer");
    const SpanRecord &middle = findSpan(spans, "middle");
    const SpanRecord &inner = findSpan(spans, "inner");
    const SpanRecord &sibling = findSpan(spans, "sibling");

    EXPECT_EQ(outer.parentId, 0u);
    EXPECT_EQ(middle.parentId, outer.id);
    EXPECT_EQ(inner.parentId, middle.id);
    // After the nested scope closes, the open-span stack must pop
    // back to `outer`.
    EXPECT_EQ(sibling.parentId, outer.id);

    // Containment: children start no earlier and end no later.
    EXPECT_GE(inner.startNs, middle.startNs);
    EXPECT_LE(inner.endNs, middle.endNs);
    EXPECT_GE(middle.startNs, outer.startNs);
    EXPECT_LE(middle.endNs, outer.endNs);
}

TEST(ObsTrace, DrainSortsByStartTime)
{
    EnabledGuard guard(true);
    {
        Span a("first");
    }
    {
        Span b("second");
    }
    const std::vector<SpanRecord> spans = drainTrace();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "first");
    EXPECT_EQ(spans[1].name, "second");
    EXPECT_TRUE(std::is_sorted(
        spans.begin(), spans.end(),
        [](const SpanRecord &x, const SpanRecord &y) {
            return x.startNs < y.startNs;
        }));
}

TEST(ObsTrace, DrainClearsBuffers)
{
    EnabledGuard guard(true);
    {
        Span span("once");
    }
    EXPECT_EQ(drainTrace().size(), 1u);
    EXPECT_TRUE(drainTrace().empty());
}

TEST(ObsTrace, SpansFromWorkerThreadsSurviveThreadExit)
{
    EnabledGuard guard(true);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            Span outer("worker.outer");
            Span inner("worker.inner");
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Workers are gone; their buffers must still drain, and each
    // thread's nesting must be self-consistent.
    const std::vector<SpanRecord> spans = drainTrace();
    ASSERT_EQ(spans.size(), 2u * kThreads);
    for (const SpanRecord &span : spans) {
        if (span.name != "worker.inner")
            continue;
        const auto parent = std::find_if(
            spans.begin(), spans.end(), [&](const SpanRecord &s) {
                return s.id == span.parentId;
            });
        ASSERT_NE(parent, spans.end());
        EXPECT_EQ(parent->name, "worker.outer");
        EXPECT_EQ(parent->threadIndex, span.threadIndex);
    }
}

} // namespace
} // namespace vaq::obs

#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace vaq::obs
{

namespace
{

/** Finished-span buffer for one recording thread. shared_ptr-owned
 *  so the global list keeps records alive after thread exit. */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<SpanRecord> records;
    std::uint64_t threadIndex = 0;
};

struct TraceState
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::uint64_t nextThreadIndex = 1;
    std::atomic<std::uint64_t> nextSpanId{1};
};

TraceState &
state()
{
    static TraceState s;
    return s;
}

/** Nanoseconds since the process trace epoch (first use). */
std::int64_t
sinceEpochNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto b = std::make_shared<ThreadBuffer>();
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        b->threadIndex = s.nextThreadIndex++;
        s.buffers.push_back(b);
        return b;
    }();
    return *buffer;
}

/** Innermost open span on this thread (0 = none). */
thread_local std::uint64_t t_openSpan = 0;

} // namespace

Span::Span(std::string_view name, bool active)
    : _active(active && enabled())
{
    if (!_active)
        return;
    _name = std::string(name);
    _id = state().nextSpanId.fetch_add(
        1, std::memory_order_relaxed);
    _parentId = t_openSpan;
    t_openSpan = _id;
    _startNs = sinceEpochNs();
}

Span::~Span()
{
    if (!_active)
        return;
    std::int64_t endNs = sinceEpochNs();
    t_openSpan = _parentId;
    ThreadBuffer &buffer = localBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.records.push_back(SpanRecord{std::move(_name), _id,
                                        _parentId,
                                        buffer.threadIndex,
                                        _startNs, endNs});
}

std::vector<SpanRecord>
drainTrace()
{
    std::vector<SpanRecord> all;
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    for (auto &buffer : s.buffers) {
        std::lock_guard<std::mutex> bufferLock(buffer->mutex);
        for (auto &record : buffer->records)
            all.push_back(std::move(record));
        buffer->records.clear();
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.id < b.id;
              });
    return all;
}

} // namespace vaq::obs

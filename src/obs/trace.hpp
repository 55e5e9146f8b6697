/**
 * @file
 * Lightweight scoped tracing spans.
 *
 * A Span is an RAII timer that records (name, start, duration,
 * parent, thread) into a per-thread buffer when it closes. Nesting
 * is tracked through a thread-local "innermost open span" pointer,
 * so parent/child relationships cost two pointer writes rather than
 * a lock. Buffers are owned by shared_ptr and registered with a
 * process-wide list, so records survive worker-thread exit (the
 * BatchCompiler / ParallelFaultSim pools) and drainTrace() can
 * collect everything from any thread.
 *
 * Like the metrics registry, spans are inert unless obs::enabled()
 * is on: the disabled constructor is a relaxed atomic load and a
 * branch, with no clock read and no allocation.
 */
#ifndef VAQ_OBS_TRACE_HPP
#define VAQ_OBS_TRACE_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace vaq::obs
{

/** One finished span, times in nanoseconds since the trace epoch
 *  (the first telemetry use in the process). */
struct SpanRecord
{
    std::string name;
    std::uint64_t id = 0;
    /** 0 when the span was a root on its thread. */
    std::uint64_t parentId = 0;
    /** Small sequential index assigned per recording thread. */
    std::uint64_t threadIndex = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

/**
 * RAII tracing span. Open spans on one thread form a stack; a span
 * constructed while another is open records it as its parent.
 * Close order must be LIFO per thread (guaranteed by scoping).
 */
class Span
{
  public:
    explicit Span(std::string_view name)
        : Span(name, enabled())
    {
    }

    /** Explicit gate for sites driven by per-compile options. */
    Span(std::string_view name, bool active);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::string _name;
    std::uint64_t _id = 0;
    std::uint64_t _parentId = 0;
    std::int64_t _startNs = 0;
    bool _active;
};

/**
 * Collect every finished span from all thread buffers, sorted by
 * (startNs, id), and clear the buffers. Open spans are not
 * included; they appear in a later drain once they close.
 */
std::vector<SpanRecord> drainTrace();

} // namespace vaq::obs

#endif // VAQ_OBS_TRACE_HPP

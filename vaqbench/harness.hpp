/**
 * @file
 * Shared plumbing of the libvaq benchmark: options, the per-run
 * correctness tally, sample statistics and the traced run's span log.
 */
#ifndef VAQBENCH_HARNESS_HPP
#define VAQBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vaqbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Load threads every workload uses (the benchmark host has 4 cores). */
inline constexpr std::size_t kThreads = 4;

/** Set-up repetitions per run; setup_s reports their median. */
inline constexpr int kSetupRepeats = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its span log into. */
    std::string traceDir = ".bench_build/traces";
};

/** Nearest-rank percentile, q in (0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> values, double q);
/** Geometric mean of positive values; 0 for an empty sample. */
double geomean(const std::vector<double> &values);
double total(const std::vector<double> &values);
/** Peak resident set size of this process, MiB. */
double peakRssMb();

using Metrics = std::map<std::string, double>;

/** One human-readable result line, under the issue's metric names. */
struct Line
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Every attempted operation is recorded once, after its output
 * checks: it fails when the operation failed (non-200, non-Ok job,
 * exception) or a check rejected its result.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once any output check rejected a result. */
    bool correct = true;
    std::vector<std::string> problems;

    void record(bool operationOk, bool outputOk, const std::string &what);
    double errorRate() const;
};

/**
 * Spans of the traced run, recorded by the benchmark around its own
 * calls into each layer, kept in memory and written out at the end.
 * Thread-safe.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string layer; ///< module the self time is charged to
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 for a root span
        double start = 0.0;       ///< seconds since the log began
        double end = 0.0;
    };

    /** Record a finished span under a fresh id; returns the id. */
    std::uint64_t add(const std::string &name, const std::string &layer,
                      std::uint64_t parent, Clock::time_point start,
                      Clock::time_point end);

    /** Each span's duration minus its children's, summed per layer
     *  into `metrics` as `self_s.<layer>`. */
    void addSelfTimes(Metrics &metrics) const;

    /** One JSON object per line. Returns false on I/O error. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point _epoch = Clock::now();
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** Everything one workload run produced. */
struct RunResult
{
    /** End-to-end (untraced) or per-layer (traced) metrics. */
    Metrics metrics;
    std::vector<Line> human;
    Tally tally;
};

RunResult runRecompileBurst(const Options &options);
RunResult runVaqdDrift(const Options &options);
RunResult runMcPst(const Options &options);

/** Paper ordering on recompile-burst's Q20 queue: geomean PST must
 *  order vqa+vqm >= vqm >= baseline. Returns the exit code. */
int checkOrdering(std::uint64_t seed);

} // namespace vaqbench

#endif // VAQBENCH_HARNESS_HPP

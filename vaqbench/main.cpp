/**
 * @file
 * libvaq benchmark program.
 *
 *   vaqbench --workload recompile-burst|vaqd-drift|mc-pst --seed N
 *            --seconds S --trace 0|1
 *   vaqbench --check-ordering --seed N
 *
 * Prints the results under the issue's metric names as '#' lines,
 * then, as the last line, one JSON object with correct / attempted /
 * failed / metrics: the end-to-end catalog with --trace 0, the
 * per-layer catalog with --trace 1 (which also writes the span log).
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <unordered_map>
#include <utility>

#include "harness.hpp"

namespace vaqbench
{

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t at = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(at, values.size() - 1)];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
total(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Tally::record(bool operationOk, bool outputOk, const std::string &what)
{
    ++attempted;
    if (operationOk && outputOk)
        return;
    ++failed;
    if (operationOk)
        correct = false;
    if (problems.size() < 8)
        problems.push_back(what);
}

double
Tally::errorRate() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
}

std::uint64_t
SpanLog::add(const std::string &name, const std::string &layer,
             std::uint64_t parent, Clock::time_point start,
             Clock::time_point end)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    const std::uint64_t id = _spans.size() + 1;
    _spans.push_back({name, layer, id, parent,
                      secondsBetween(_epoch, start),
                      secondsBetween(_epoch, end)});
    return id;
}

void
SpanLog::addSelfTimes(Metrics &metrics) const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    std::unordered_map<std::uint64_t, double> childTime;
    for (const Span &span : _spans) {
        if (span.parent != 0)
            childTime[span.parent] += span.end - span.start;
    }
    for (const Span &span : _spans) {
        const auto it = childTime.find(span.id);
        metrics["self_s." + span.layer] +=
            span.end - span.start -
            (it == childTime.end() ? 0.0 : it->second);
    }
}

bool
SpanLog::write(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    std::error_code error;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), error);
    std::ofstream out(path);
    for (const Span &span : _spans) {
        out << "{\"name\":\"" << span.name << "\",\"layer\":\""
            << span.layer << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent
            << ",\"start_us\":" << span.start * 1e6
            << ",\"end_us\":" << span.end * 1e6 << "}\n";
    }
    return static_cast<bool>(out);
}

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics; every workload reports every one (see
 *  vaqbench/METRICS.md for what each means per workload). */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_share", "ratio"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"geomean_pst", "ratio"},
};

/** Per-layer metrics; a layer a workload bypasses reports 0. */
const std::vector<MetricDef> kPerLayer = {
    {"core.compile_ms_p50", "ms"},
    {"core.compile_ms_p99", "ms"},
    {"core.allocate_s", "s"},
    {"core.route_s", "s"},
    {"core.score_s", "s"},
    {"core.swaps_per_job", "count"},
    {"core.retries", "count"},
    {"core.plan_hit_ratio", "ratio"},
    {"graph.matrix_build_ms", "ms"},
    {"graph.matrix_hit_ratio", "ratio"},
    {"calibration.inspect_ms", "ms"},
    {"calibration.csv_parse_ms", "ms"},
    {"analysis.lint_s", "s"},
    {"analysis.sensitivity_us_p50", "us"},
    {"store.exact_hits", "count"},
    {"store.delta_serves", "count"},
    {"store.bound_serves", "count"},
    {"store.misses", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.exact_serve_us_p50", "us"},
    {"store.bound_serve_us_p50", "us"},
    {"store.record_us_p50", "us"},
    {"circuit.qasm_parse_us_p50", "us"},
    {"common.json_decode_us_p50", "us"},
    {"common.json_encode_us_p50", "us"},
    {"service.handler_us_p50", "us"},
    {"service.handler_us_p99", "us"},
    {"service.transport_us_p50", "us"},
    {"service.shed", "count"},
    {"service.rollover_ms", "ms"},
    {"service.req_p99_ms", "ms"},
    {"service.unaccounted_share", "ratio"},
    {"sim.chunk_ms_mean", "ms"},
    {"sim.pool_busy_ratio", "ratio"},
    {"sim.frame_trials_per_s", "1/s"},
    {"sim.frame_trials_per_s.w5", "1/s"},
    {"sim.frame_trials_per_s.w16", "1/s"},
    {"sim.frame_trials_per_s.w20", "1/s"},
    {"sim.frame_trials_per_s.w27", "1/s"},
    {"sim.frame_fallbacks", "count"},
    {"sim.trial_successes", "count"},
    {"batch.pool_busy_ratio", "ratio"},
    {"batch.job_ms_max", "ms"},
    {"harness.gen_lag_ms_p99", "ms"},
    {"harness.trace_overhead", "ratio"},
    {"harness.input_fingerprint", "count"},
    {"quality.geomean_pst", "ratio"},
    {"self_s.harness", "s"},
    {"self_s.service", "s"},
    {"self_s.common", "s"},
    {"self_s.circuit", "s"},
    {"self_s.core", "s"},
    {"self_s.analysis", "s"},
    {"self_s.store", "s"},
    {"self_s.sim", "s"},
    {"self_s.calibration", "s"},
    {"self_s.graph", "s"},
};

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

int
usage()
{
    std::cerr << "usage: vaqbench --workload recompile-burst|vaqd-drift|"
                 "mc-pst --seed N --seconds S --trace 0|1\n"
                 "       vaqbench --check-ordering --seed N\n";
    return 2;
}

} // namespace

} // namespace vaqbench

int
main(int argc, char **argv)
{
    using namespace vaqbench;
    Options options;
    bool ordering = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            options.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && hasValue) {
            options.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--trace-dir" && hasValue) {
            options.traceDir = argv[++i];
        } else if (arg == "--check-ordering") {
            ordering = true;
        } else {
            return usage();
        }
    }
    try {
        if (ordering)
            return checkOrdering(options.seed);
        if (options.seconds <= 0.0)
            return usage();
        RunResult result;
        if (options.workload == "recompile-burst")
            result = runRecompileBurst(options);
        else if (options.workload == "vaqd-drift")
            result = runVaqdDrift(options);
        else if (options.workload == "mc-pst")
            result = runMcPst(options);
        else
            return usage();

        std::cout << "# vaqbench " << options.workload << " seed "
                  << options.seed << (options.trace ? " (traced)" : "")
                  << "\n";
        for (const Line &line : result.human) {
            std::cout << "#   " << line.name << " = " << number(line.value)
                      << " " << line.unit << "\n";
        }
        for (const std::string &problem : result.tally.problems)
            std::cerr << "vaqbench: failed: " << problem << "\n";

        const std::vector<MetricDef> &catalog =
            options.trace ? kPerLayer : kEndToEnd;
        std::string json = "{\"correct\": ";
        json += result.tally.correct ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(result.tally.attempted);
        json += ", \"failed\": " + std::to_string(result.tally.failed);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < catalog.size(); ++i) {
            const auto it = result.metrics.find(catalog[i].name);
            if (it == result.metrics.end() && !options.trace) {
                std::cerr << "vaqbench: workload did not measure "
                          << catalog[i].name << "\n";
                return 1;
            }
            const double value =
                it == result.metrics.end() ? 0.0 : it->second;
            json += std::string(i == 0 ? "" : ", ") + "\"" +
                    catalog[i].name + "\": {\"value\": " + number(value) +
                    ", \"unit\": \"" + catalog[i].unit + "\"}";
        }
        json += "}}";
        std::cout << json << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "vaqbench: " << e.what() << "\n";
        return 1;
    }
}

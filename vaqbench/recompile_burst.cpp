/**
 * @file
 * recompile-burst: the paper's operating point. Each cycle publishes
 * a fresh calibration snapshot per machine and the whole queue (the
 * Table 1 suite plus seeded bv/qft/rnd programs of 4-20 qubits) is
 * recompiled on BatchCompiler with 4 threads, policy vqa+vqm, lint
 * on, no artifact store. The path caches are dropped before every
 * cycle, as a rollover does, so each cycle starts cold.
 */
#include <iostream>
#include <memory>

#include "analysis/dataflow.hpp"
#include "analysis/sensitivity.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/verify.hpp"
#include "graph/reliability_matrix.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "topology/layouts.hpp"

namespace vaqbench
{

using namespace vaq;

namespace
{

/** Calibration cycles generated per machine (reused round-robin). */
constexpr std::size_t kCycles = 32;
/** Leading cycles every run completes; quality and count metrics
 *  come from these, so they repeat exactly per seed. */
constexpr std::size_t kCountedCycles = 3;
/** The Table 1 suite leads every machine's queue. */
constexpr std::size_t kSuiteSize = 7;

struct Machine
{
    topology::CouplingGraph graph;
    std::vector<circuit::Circuit> queue;
    std::vector<calibration::Snapshot> cycles;
};

struct Inputs
{
    std::vector<std::unique_ptr<Machine>> machines;
    std::uint64_t fingerprint = kFingerprintBasis;
};

std::unique_ptr<Inputs>
makeInputs(std::uint64_t seed)
{
    auto in = std::make_unique<Inputs>();
    const std::vector<workloads::Workload> extra = seededQueue(seed);
    for (topology::CouplingGraph graph : {topology::ibmQ20Tokyo()}) {
        auto m = std::make_unique<Machine>(
            Machine{std::move(graph), {}, {}});
        for (workloads::Workload &w : workloads::standardSuite(m->graph))
            m->queue.push_back(std::move(w.circuit));
        for (const workloads::Workload &w : extra)
            m->queue.push_back(w.circuit);
        calibration::SyntheticSource source(m->graph, {}, kMachineSeed);
        for (std::size_t c = 0; c < kCycles; ++c)
            m->cycles.push_back(source.nextCycle());
        for (const circuit::Circuit &c : m->queue)
            in->fingerprint = fold(in->fingerprint, c.contentHash());
        in->fingerprint =
            fold(in->fingerprint, m->cycles.front().contentHash());
        in->machines.push_back(std::move(m));
    }
    return in;
}

core::BatchOptions
batchOptions(bool telemetry)
{
    core::BatchOptions options;
    options.compile.threads = kThreads;
    options.compile.cacheEnabled = true;
    options.compile.telemetryEnabled = telemetry;
    options.lint = true;
    return options;
}

struct Cycle
{
    std::size_t index = 0;
    double makespanS = 0.0;
    /** Per machine, the burst's results in queue order. */
    std::vector<std::vector<core::BatchResult>> results;
};

std::vector<Cycle>
measure(const Inputs &in, std::vector<std::unique_ptr<core::BatchCompiler>> &compilers,
        double seconds, SpanLog *spans)
{
    std::vector<Cycle> cycles;
    const Clock::time_point start = Clock::now();
    for (std::size_t c = 0; c < kCountedCycles ||
                            secondsBetween(start, Clock::now()) < seconds;
         ++c) {
        Cycle cycle;
        cycle.index = c % kCycles;
        const Clock::time_point t0 = Clock::now();
        core::invalidatePathCaches();
        std::vector<std::pair<Clock::time_point, Clock::time_point>> bursts;
        for (std::size_t m = 0; m < in.machines.size(); ++m) {
            const Clock::time_point b0 = Clock::now();
            cycle.results.push_back(compilers[m]->compileAll(
                in.machines[m]->queue,
                {in.machines[m]->cycles[cycle.index]}));
            bursts.emplace_back(b0, Clock::now());
        }
        const Clock::time_point t1 = Clock::now();
        cycle.makespanS = secondsBetween(t0, t1);
        if (spans) {
            const std::uint64_t root = spans->add("cycle", "harness", 0, t0, t1);
            for (const auto &[b0, b1] : bursts)
                spans->add("core.batch_compile", "core", root, b0, b1);
        }
        cycles.push_back(std::move(cycle));
    }
    return cycles;
}

/** Output checks, outside the timed window: every job Ok, every
 *  mapping verified, every analytic PST equal to a fresh one. */
void
check(const Inputs &in, const std::vector<Cycle> &cycles, Tally &tally)
{
    for (const Cycle &cycle : cycles) {
        for (std::size_t m = 0; m < in.machines.size(); ++m) {
            const Machine &machine = *in.machines[m];
            const sim::NoiseModel model(machine.graph,
                                        machine.cycles[cycle.index]);
            for (const core::BatchResult &r : cycle.results[m]) {
                const bool ok = r.status == core::JobStatus::Ok;
                bool output = false;
                if (ok) {
                    output = core::verifyMapping(r.mapped,
                                                 machine.queue[r.circuit],
                                                 machine.graph)
                                 .ok() &&
                             r.analyticPst ==
                                 sim::analyticPst(r.mapped.physical, model);
                }
                tally.record(ok, output,
                             "job " + std::to_string(r.circuit) + " on " +
                                 machine.graph.name() + ": " + r.error);
            }
        }
    }
}

/** Geomean analytic PST of the Table 1 suite jobs (fixed programs on
 *  fixed cycles, so it moves only when mapping quality does). */
double
countedGeomeanPst(const std::vector<Cycle> &cycles)
{
    std::vector<double> psts;
    for (std::size_t c = 0; c < kCountedCycles; ++c) {
        for (const auto &burst : cycles[c].results) {
            for (const core::BatchResult &r : burst) {
                if (r.status == core::JobStatus::Ok &&
                    r.circuit < kSuiteSize)
                    psts.push_back(r.analyticPst);
            }
        }
    }
    return geomean(psts);
}

double
jobsPerSecond(const std::vector<Cycle> &cycles)
{
    double jobs = 0.0;
    double seconds = 0.0;
    for (const Cycle &cycle : cycles) {
        for (const auto &burst : cycle.results)
            jobs += static_cast<double>(burst.size());
        seconds += cycle.makespanS;
    }
    return jobs / seconds;
}

double
histogramSum(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

/** Per-layer metrics of the traced half, from the benchmark's own
 *  calls into each layer plus the obs histograms the layers emit. */
void
layerMetrics(const Inputs &in, const std::vector<Cycle> &cycles,
             const obs::MetricsSnapshot &snap,
             const core::PathCacheStats &before,
             const core::PathCacheStats &after, SpanLog &spans,
             Metrics &m)
{
    std::vector<double> compileMs;
    std::vector<double> jobMax;
    double swaps = 0.0;
    double counted = 0.0;
    double retries = 0.0;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        for (const auto &burst : cycles[c].results) {
            double slowest = 0.0;
            for (const core::BatchResult &r : burst) {
                compileMs.push_back(r.compileMs);
                slowest = std::max(slowest, r.compileMs);
                retries += r.attempts > 1 ? r.attempts - 1 : 0;
                if (c < kCountedCycles && r.ok()) {
                    swaps += static_cast<double>(r.mapped.insertedSwaps);
                    counted += 1.0;
                }
            }
            jobMax.push_back(slowest);
        }
    }
    m["core.compile_ms_p50"] = percentile(compileMs, 0.5);
    m["core.compile_ms_p99"] = percentile(compileMs, 0.99);
    m["core.allocate_s"] = histogramSum(snap, "mapper.allocate.seconds");
    m["core.route_s"] = histogramSum(snap, "mapper.route.seconds");
    m["core.score_s"] = histogramSum(snap, "mapper.score.seconds");
    m["core.swaps_per_job"] = swaps / counted;
    m["core.retries"] = retries;
    m["analysis.lint_s"] = histogramSum(snap, "analysis.lint.seconds");
    m["batch.job_ms_max"] = percentile(jobMax, 0.5);
    double burstSeconds = 0.0;
    for (const Cycle &cycle : cycles)
        burstSeconds += cycle.makespanS;
    m["batch.pool_busy_ratio"] =
        histogramSum(snap, "batch.job.seconds") /
        (static_cast<double>(kThreads) * burstSeconds);
    const auto ratio = [](std::size_t hits, std::size_t misses) {
        return hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses);
    };
    m["graph.matrix_hit_ratio"] =
        ratio(after.matrixHits - before.matrixHits,
              after.matrixMisses - before.matrixMisses);
    m["core.plan_hit_ratio"] = ratio(after.planHits - before.planHits,
                                     after.planMisses - before.planMisses);

    // Layer calls the batch makes internally, repeated by the
    // benchmark on the same inputs so each can be timed alone.
    std::vector<double> inspectMs;
    std::vector<double> matrixMs;
    std::vector<double> csvMs;
    std::vector<double> sensUs;
    for (const std::unique_ptr<Machine> &machine : in.machines) {
        for (std::size_t c = 0; c < std::min(cycles.size(), kCycles); ++c) {
            const calibration::Snapshot &snapshot = machine->cycles[c];
            Clock::time_point t0 = Clock::now();
            core::inspectSnapshot(snapshot, machine->graph,
                                  core::CalibrationHandling::Sanitize);
            Clock::time_point t1 = Clock::now();
            spans.add("calibration.inspect", "calibration", 0, t0, t1);
            inspectMs.push_back(secondsBetween(t0, t1) * 1e3);
            t0 = Clock::now();
            const graph::ReliabilityMatrix matrix(
                core::reliabilityCostGraph(machine->graph, snapshot),
                snapshot.contentHash());
            t1 = Clock::now();
            spans.add("graph.matrix_build", "graph", 0, t0, t1);
            matrixMs.push_back(secondsBetween(t0, t1) * 1e3);
            const std::string csv =
                calibration::toCsv(snapshot, machine->graph);
            t0 = Clock::now();
            calibration::fromCsv(csv, machine->graph);
            t1 = Clock::now();
            spans.add("calibration.csv_parse", "calibration", 0, t0, t1);
            csvMs.push_back(secondsBetween(t0, t1) * 1e3);
        }
    }
    for (std::size_t m2 = 0; m2 < in.machines.size(); ++m2) {
        const Machine &machine = *in.machines[m2];
        const calibration::Snapshot &snapshot =
            machine.cycles[cycles.front().index];
        for (const core::BatchResult &r : cycles.front().results[m2]) {
            if (!r.ok())
                continue;
            const Clock::time_point t0 = Clock::now();
            const analysis::DataflowAnalysis dataflow(r.mapped.physical,
                                                      snapshot.durations);
            analysis::analyzeSensitivity(dataflow, machine.graph, snapshot);
            const Clock::time_point t1 = Clock::now();
            spans.add("analysis.sensitivity", "analysis", 0, t0, t1);
            sensUs.push_back(secondsBetween(t0, t1) * 1e6);
        }
    }
    m["calibration.inspect_ms"] = percentile(inspectMs, 0.5);
    m["graph.matrix_build_ms"] = percentile(matrixMs, 0.5);
    m["calibration.csv_parse_ms"] = percentile(csvMs, 0.5);
    m["analysis.sensitivity_us_p50"] = percentile(sensUs, 0.5);
}

} // namespace

RunResult
runRecompileBurst(const Options &options)
{
    RunResult result;
    std::vector<double> setups;
    std::unique_ptr<Inputs> in;
    const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
    std::vector<std::unique_ptr<core::BatchCompiler>> compilers;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        in = makeInputs(options.seed);
        compilers.clear();
        compilers.reserve(in->machines.size());
        for (const std::unique_ptr<Machine> &m : in->machines)
            compilers.push_back(std::make_unique<core::BatchCompiler>(
                mapper, m->graph, batchOptions(false)));
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    const double untracedSeconds =
        options.trace ? options.seconds / 2 : options.seconds;
    const std::vector<Cycle> plain =
        measure(*in, compilers, untracedSeconds, nullptr);
    check(*in, plain, result.tally);
    const double jobsPerS = jobsPerSecond(plain);
    std::vector<double> makespanMs;
    for (const Cycle &cycle : plain)
        makespanMs.push_back(cycle.makespanS * 1e3);

    result.human = {
        {"recompile_jobs_per_s", jobsPerS, "1/s"},
        {"geomean_pst", countedGeomeanPst(plain), "ratio"},
        {"error_rate", result.tally.errorRate(), "ratio"},
        {"cycles", static_cast<double>(plain.size()), "count"},
    };
    if (!options.trace) {
        result.metrics = {
            {"setup_s", percentile(setups, 0.5)},
            {"peak_rss_mb", peakRssMb()},
            {"ok_share", 1.0 - result.tally.errorRate()},
            {"throughput_per_s", jobsPerS},
            {"latency_p50_ms", percentile(makespanMs, 0.5)},
            {"geomean_pst", countedGeomeanPst(plain)},
        };
        return result;
    }

    obs::setEnabled(true);
    obs::Registry::global().reset();
    std::vector<std::unique_ptr<core::BatchCompiler>> traced;
    traced.reserve(in->machines.size());
    for (const std::unique_ptr<Machine> &m : in->machines)
        traced.push_back(std::make_unique<core::BatchCompiler>(
            mapper, m->graph, batchOptions(true)));
    SpanLog spans;
    const core::PathCacheStats before = core::pathCacheStats();
    const std::vector<Cycle> cycles =
        measure(*in, traced, options.seconds / 2, &spans);
    const core::PathCacheStats after = core::pathCacheStats();
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    obs::setEnabled(false);
    check(*in, cycles, result.tally);

    Metrics &m = result.metrics;
    layerMetrics(*in, cycles, snap, before, after, spans, m);
    m["quality.geomean_pst"] = countedGeomeanPst(cycles);
    m["harness.trace_overhead"] = 1.0 - jobsPerSecond(cycles) / jobsPerS;
    m["harness.input_fingerprint"] =
        static_cast<double>(in->fingerprint & ((1ULL << 52) - 1));
    spans.addSelfTimes(m);
    spans.write(options.traceDir + "/recompile-burst-seed" +
                std::to_string(options.seed) + ".jsonl");
    return result;
}

int
checkOrdering(std::uint64_t seed)
{
    const std::unique_ptr<Inputs> in = makeInputs(seed);
    const Machine &q20 = *in->machines.front();
    const std::vector<calibration::Snapshot> snapshots(
        q20.cycles.begin(), q20.cycles.begin() + kCountedCycles);
    std::vector<double> geomeans;
    for (const char *policy : {"baseline", "vqm", "vqa+vqm"}) {
        const core::Mapper mapper = core::makeMapper({.name = policy});
        core::BatchCompiler compiler(mapper, q20.graph, batchOptions(false));
        std::vector<double> psts;
        for (const core::BatchResult &r :
             compiler.compileAll(q20.queue, snapshots)) {
            if (r.ok())
                psts.push_back(r.analyticPst);
        }
        geomeans.push_back(geomean(psts));
        std::cout << "ordering: " << policy << " geomean_pst "
                  << geomeans.back() << "\n";
    }
    const bool ordered =
        geomeans[2] >= geomeans[1] && geomeans[1] >= geomeans[0];
    std::cout << "ordering: vqa+vqm >= vqm >= baseline "
              << (ordered ? "holds" : "VIOLATED") << "\n";
    return ordered ? 0 : 1;
}

} // namespace vaqbench

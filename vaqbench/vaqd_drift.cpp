/**
 * @file
 * vaqd-drift: an in-process CompileService behind a loopback
 * HttpServer. An open-loop /v1/compile stream arrives at a fixed rate
 * on 4 connections (quotas off); programs come from a seeded pool
 * with Zipf popularity. Every three seconds of schedule the benchmark
 * POSTs a /v1/calibration rollover as CSV, and the store serves with
 * a nonzero staleness tolerance, so requests mix exact hits, delta
 * serves, bound serves and fresh compiles. A closed-loop phase on the
 * same 4 connections, re-warmed on the last epoch, then measures
 * serving throughput.
 *
 * Determinism: each program is pinned to one connection and every
 * epoch ends with all connections drained before the rollover, so a
 * program's request history (and hence its store outcomes and served
 * PSTs) depends only on the seed, never on thread timing.
 *
 * Steadiness: the pool holds 4-8 qubit programs and rollovers are
 * three seconds apart, so recompiles stay a small share of the load
 * and the median request does not queue behind them. The p99 is set
 * by the recompile backlog right after each rollover, which swings
 * with the seed's drift; it is reported per layer, not gated.
 */
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <memory>
#include <thread>

#include "analysis/dataflow.hpp"
#include "analysis/sens_report.hpp"
#include "analysis/sensitivity.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/compile_cache.hpp"
#include "core/verify.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "store/adapter.hpp"
#include "topology/layouts.hpp"

namespace vaqbench
{

using namespace vaq;

namespace
{

constexpr std::size_t kPoolSize = 210;
constexpr double kZipfExponent = 1.0;
/** Offered rate of the open-loop phase, requests per second. */
constexpr double kRate = 800.0;
/** Schedule seconds between calibration rollovers. */
constexpr double kEpochSeconds = 3.0;
constexpr double kStalenessTol = 1e-2;
constexpr std::size_t kEpochs = 64;
const char *const kPolicy = "vqm";
/** Closed-loop exchanges per thread whose outputs are checked. */
constexpr std::size_t kClosedChecked = 1500;

struct Inputs
{
    topology::CouplingGraph graph = topology::ibmQ20Tokyo();
    std::vector<circuit::Circuit> pool;
    std::vector<std::string> qasmJson; ///< per program, JSON-quoted
    std::vector<calibration::Snapshot> epochs;
    std::vector<std::string> epochCsv;
    std::vector<double> popularityCdf; ///< by rank
    std::vector<std::size_t> programOfRank;
    std::vector<std::size_t> connectionOf; ///< per program
    std::uint64_t fingerprint = kFingerprintBasis;
};

std::unique_ptr<Inputs>
makeInputs(std::uint64_t seed)
{
    auto in = std::make_unique<Inputs>();
    in->pool = seededPool(kPoolSize, seed);
    for (const circuit::Circuit &c : in->pool) {
        in->qasmJson.push_back(
            json::write(json::Value::string(circuit::toQasm(c))));
        in->fingerprint = fold(in->fingerprint, c.contentHash());
    }
    calibration::SyntheticSource source(in->graph, {}, kMachineSeed);
    in->epochs.push_back(source.nextCycle());
    Rng drift(seed ^ 0x2545f4914f6cdd1dULL);
    while (in->epochs.size() < kEpochs) {
        in->epochs.push_back(
            driftedSnapshot(in->epochs.back(), in->graph, drift));
    }
    // The daemon sees each epoch through its CSV text, so the checks
    // compare against the same parsed values.
    for (calibration::Snapshot &s : in->epochs) {
        in->epochCsv.push_back(calibration::toCsv(s, in->graph));
        s = calibration::fromCsv(in->epochCsv.back(), in->graph);
        in->fingerprint = fold(in->fingerprint, s.contentHash());
    }

    // Popularity rank r belongs to size/family class r % 15, so every
    // seed's hot set has the same cost mix; the member within the
    // class is seeded.
    Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
    const std::size_t perClass = kPoolSize / kPoolClasses;
    std::vector<std::vector<std::size_t>> members(kPoolClasses);
    for (std::size_t k = 0; k < kPoolSize; ++k)
        members[k % kPoolClasses].push_back(k);
    for (std::vector<std::size_t> &m : members)
        rng.shuffle(m);
    double mass = 0.0;
    std::vector<double> weight(kPoolSize);
    for (std::size_t r = 0; r < kPoolSize; ++r) {
        in->programOfRank.push_back(
            members[r % kPoolClasses][(r / kPoolClasses) % perClass]);
        weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        mass += weight[r];
        in->popularityCdf.push_back(mass);
    }
    for (double &c : in->popularityCdf)
        c /= mass;
    // Pin programs to connections, heaviest first onto the lightest.
    in->connectionOf.assign(kPoolSize, 0);
    std::vector<double> load(kThreads, 0.0);
    for (std::size_t r = 0; r < kPoolSize; ++r) {
        const std::size_t c = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        in->connectionOf[in->programOfRank[r]] = c;
        load[c] += weight[r];
    }
    return in;
}

std::size_t
drawProgram(const Inputs &in, Rng &rng)
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(in.popularityCdf.begin(),
                                     in.popularityCdf.end(), u);
    const std::size_t rank = std::min(
        static_cast<std::size_t>(it - in.popularityCdf.begin()),
        kPoolSize - 1);
    return in.programOfRank[rank];
}

std::string
compileBody(const Inputs &in, std::uint64_t id, std::size_t program)
{
    // The id leads the body so the traced handler can read it cheaply.
    return "{\"clientId\":\"b" + std::to_string(id) + "\",\"qasm\":" +
           in.qasmJson[program] + ",\"policy\":{\"name\":\"" + kPolicy +
           "\"}}";
}

/** Handler start/end per request id, filled by the traced handler. */
struct HandlerTimes
{
    std::vector<Clock::time_point> start;
    std::vector<Clock::time_point> end;
};

/** One running daemon: store, service and loopback server. */
struct Daemon
{
    store::ArtifactStore store;
    service::CompileService service;
    HandlerTimes *times;
    service::HttpServer server;

    Daemon(const Inputs &in, bool traced, HandlerTimes *handlerTimes)
        : store(store::StoreOptions{.directory = "",
                                    .maxEntries = 4096,
                                    .deltaReuse = true,
                                    .stalenessTol = kStalenessTol}),
          service(in.graph, in.epochs.front(),
                  serviceOptions(traced), &store),
          times(handlerTimes),
          server(service::HttpServerOptions{.workerThreads = kThreads},
                 [this](const service::HttpRequest &request) {
                     return handle(request);
                 })
    {}

    static service::ServiceOptions
    serviceOptions(bool traced)
    {
        service::ServiceOptions options;
        options.compile.telemetryEnabled = traced;
        options.quotaRps = 0.0;
        return options;
    }

    service::HttpResponse
    handle(const service::HttpRequest &request)
    {
        if (times == nullptr)
            return service.handle(request);
        const Clock::time_point t0 = Clock::now();
        service::HttpResponse response = service.handle(request);
        const Clock::time_point t1 = Clock::now();
        constexpr std::string_view kPrefix = "{\"clientId\":\"b";
        if (request.body.compare(0, kPrefix.size(), kPrefix) == 0) {
            const std::size_t id = std::strtoull(
                request.body.c_str() + kPrefix.size(), nullptr, 10);
            if (id < times->start.size()) {
                times->start[id] = t0;
                times->end[id] = t1;
            }
        }
        return response;
    }
};

/** One /v1/compile exchange as the client saw it. */
struct Exchange
{
    std::size_t program = 0;
    std::size_t epoch = 0;
    int status = 0;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point received;
    std::string body;
};

/** Warm the store with one compile of every pool program (set-up). */
void
warm(const Inputs &in, Daemon &daemon)
{
    std::vector<std::thread> threads;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t p = next++; p < kPoolSize; p = next++) {
                try {
                    if (service::httpExchange(daemon.server.port(), "POST",
                                              "/v1/compile",
                                              compileBody(in, 0, p))
                            .status != 200)
                        failed = true;
                } catch (const std::exception &) {
                    failed = true;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (failed)
        throw std::runtime_error("store warm-up compile failed");
}

struct OpenLoop
{
    std::vector<Exchange> exchanges;
    std::vector<double> rolloverMs;
    bool rolloverFailed = false;
};

/**
 * The open-loop phase: `count` requests due at kRate, epoch e covering
 * requests [e*E, (e+1)*E), opened by a rollover to epochs[e + 1] and
 * scheduled from the moment that rollover returned.
 */
OpenLoop
openLoop(const Inputs &in, Daemon &daemon, std::size_t count,
         std::uint64_t seed)
{
    OpenLoop run;
    const auto perEpoch = static_cast<std::size_t>(kRate * kEpochSeconds);
    const std::size_t epochCount = (count + perEpoch - 1) / perEpoch;
    if (epochCount + 1 > kEpochs)
        throw std::runtime_error("run needs more calibration epochs");
    Rng rng(seed ^ 0xbb67ae8584caa73bULL);
    run.exchanges.resize(count);
    std::vector<std::vector<std::vector<std::size_t>>> mine(
        kThreads, std::vector<std::vector<std::size_t>>(epochCount));
    for (std::size_t i = 0; i < count; ++i) {
        Exchange &x = run.exchanges[i];
        x.program = drawProgram(in, rng);
        x.epoch = 1 + i / perEpoch;
        mine[in.connectionOf[x.program]][i / perEpoch].push_back(i);
    }

    const auto rollover = [&](std::size_t epoch) {
        const Clock::time_point t0 = Clock::now();
        try {
            if (service::httpExchange(daemon.server.port(), "POST",
                                      "/v1/calibration", in.epochCsv[epoch],
                                      "text/csv")
                    .status != 200)
                run.rolloverFailed = true;
        } catch (const std::exception &) {
            run.rolloverFailed = true;
        }
        run.rolloverMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    };
    // Each epoch's schedule starts once its rollover has returned, so a
    // slow drain or rollover is not charged to the next epoch's
    // requests (rollover time is service.rollover_ms).
    const auto epochStart = [] {
        return Clock::now() + std::chrono::milliseconds(2);
    };
    rollover(1);
    Clock::time_point start = epochStart();
    std::size_t finished = 0;
    auto onEpochEnd = [&]() noexcept {
        ++finished;
        if (finished < epochCount) {
            rollover(finished + 1);
            start = epochStart();
        }
    };
    std::barrier barrier(static_cast<std::ptrdiff_t>(kThreads), onEpochEnd);
    const auto period = std::chrono::duration<double>(1.0 / kRate);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t e = 0; e < epochCount; ++e) {
                for (const std::size_t i : mine[t][e]) {
                    Exchange &x = run.exchanges[i];
                    x.due = start + std::chrono::duration_cast<
                                        Clock::duration>(
                                        period * (i - e * perEpoch));
                    std::this_thread::sleep_until(x.due);
                    x.sent = Clock::now();
                    try {
                        service::HttpResponse r = service::httpExchange(
                            daemon.server.port(), "POST", "/v1/compile",
                            compileBody(in, i, x.program));
                        x.status = r.status;
                        x.body = std::move(r.body);
                    } catch (const std::exception &) {
                        x.status = -1;
                    }
                    x.received = Clock::now();
                }
                barrier.arrive_and_wait();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return run;
}

/**
 * Closed loop on kThreads connections for `seconds`; requests/s, the
 * median over one-second slices so a short stall of the host does not
 * move it. The first kClosedChecked exchanges of each thread keep
 * their bodies for the output checks; later ones count by status
 * only, so memory does not grow with the daemon's speed.
 */
double
closedLoop(const Inputs &in, Daemon &daemon, double seconds,
           std::uint64_t seed, std::vector<Exchange> &exchanges,
           Tally &tally)
{
    std::vector<std::vector<Exchange>> perThread(kThreads);
    std::vector<std::vector<int>> statuses(kThreads);
    std::vector<std::vector<Clock::time_point>> done(kThreads);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(seed * 31 + t);
            while (secondsBetween(start, Clock::now()) < seconds) {
                Exchange x;
                x.program = drawProgram(in, rng);
                x.epoch = 0; // filled by the caller
                x.sent = Clock::now();
                try {
                    service::HttpResponse r = service::httpExchange(
                        daemon.server.port(), "POST", "/v1/compile",
                        compileBody(in, 0, x.program));
                    x.status = r.status;
                    x.body = std::move(r.body);
                } catch (const std::exception &) {
                    x.status = -1;
                }
                x.received = Clock::now();
                done[t].push_back(x.received);
                if (perThread[t].size() < kClosedChecked)
                    perThread[t].push_back(std::move(x));
                else
                    statuses[t].push_back(x.status);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::vector<double> perSlice(
        std::max<std::size_t>(1, static_cast<std::size_t>(seconds)), 0.0);
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (const Clock::time_point at : done[t]) {
            const auto slice =
                static_cast<std::size_t>(secondsBetween(start, at));
            if (slice < perSlice.size())
                perSlice[slice] += 1.0;
        }
        for (Exchange &x : perThread[t])
            exchanges.push_back(std::move(x));
        for (const int status : statuses[t]) {
            tally.record(status == 200, true,
                         "closed-loop status " + std::to_string(status));
        }
    }
    return percentile(perSlice, 0.5);
}

/** What one response says, once parsed back. */
struct Served
{
    bool parsed = false;
    core::CompileResult result;
    bool bound = false;
};

enum class Outcome
{
    Exact,
    Delta,
    Bound,
    Miss,
};

Outcome
outcomeOf(const Served &s)
{
    if (!s.result.fromStore)
        return Outcome::Miss;
    if (s.bound)
        return Outcome::Bound;
    return s.result.viaDelta ? Outcome::Delta : Outcome::Exact;
}

/** Parse and check every response, outside the timed window: the
 *  mapping verifies against its program, and the served PST equals a
 *  fresh analytic PST under the epoch's calibration. */
std::vector<Served>
check(const Inputs &in, const std::vector<Exchange> &exchanges,
      Tally &tally)
{
    std::vector<Served> served(exchanges.size());
    std::vector<char> outputOk(exchanges.size(), 0);
    ThreadPool pool(kThreads);
    pool.parallelFor(exchanges.size(), [&](std::size_t i) {
        const Exchange &x = exchanges[i];
        if (x.status != 200)
            return;
        try {
            const json::Value body = json::parse(x.body, "response");
            const json::Cursor cursor(body);
            Served &s = served[i];
            s.result = core::compileResultFromJson(cursor);
            if (const auto sens = cursor.get("sensitivity")) {
                if (const auto flag = sens->get("servedOnBound"))
                    s.bound = flag->asBool();
            }
            s.parsed = true;
            const sim::NoiseModel model(in.graph, in.epochs[x.epoch]);
            const double fresh =
                sim::analyticPst(s.result.mapped.physical, model);
            const core::VerificationReport report = core::verifyMapping(
                s.result.mapped, in.pool[x.program], in.graph);
            outputOk[i] =
                s.result.status == core::JobStatus::Ok && report.ok() &&
                std::abs(s.result.analyticPst - fresh) <= 1e-9 * fresh;
        } catch (const std::exception &) {
            outputOk[i] = 0;
        }
    });
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
        tally.record(exchanges[i].status == 200, outputOk[i] != 0,
                     "request " + std::to_string(i) + " status " +
                         std::to_string(exchanges[i].status));
    }
    return served;
}

double
geomeanServedPst(const std::vector<Served> &served)
{
    std::vector<double> psts;
    for (const Served &s : served) {
        if (s.parsed)
            psts.push_back(s.result.analyticPst);
    }
    return geomean(psts);
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

template <typename F>
double
timedUs(F &&call)
{
    const Clock::time_point t0 = Clock::now();
    call();
    return secondsBetween(t0, Clock::now()) * 1e6;
}

/**
 * Per-layer accounting of the traced open-loop phase. Each request's
 * handler time is split into the layer calls the handler makes,
 * re-executed by the benchmark on the same bytes: JSON decode, QASM
 * parse, core::compile (its own timing field; store lookups when
 * served), store record (misses), sensitivity, JSON encode. What the
 * split does not explain is service.unaccounted_share.
 */
void
layerMetrics(const Inputs &in, const OpenLoop &run,
             const std::vector<Served> &served, const HandlerTimes &times,
             SpanLog &spans, Metrics &m)
{
    store::ArtifactStore shadow(store::StoreOptions{
        .directory = "", .maxEntries = 1u << 16, .deltaReuse = true,
        .stalenessTol = kStalenessTol});
    core::PolicySpec spec;
    spec.name = kPolicy;
    store::ArtifactCacheAdapter recorder(shadow, in.graph, spec);

    std::vector<double> decodeUs, qasmUs, encodeUs, sensUs, recordUs;
    std::vector<double> handlerUs, transportUs, compileMs;
    std::vector<double> exactUs, boundUs, lagMs;
    double counts[4] = {0, 0, 0, 0};
    double swaps = 0.0, retries = 0.0, unaccounted = 0.0, wall = 0.0;
    for (std::size_t i = 0; i < run.exchanges.size(); ++i) {
        const Exchange &x = run.exchanges[i];
        lagMs.push_back(msBetween(x.due, x.sent));
        if (!served[i].parsed)
            continue;
        const Served &s = served[i];
        const calibration::Snapshot &snapshot = in.epochs[x.epoch];
        const std::string body = compileBody(in, i, x.program);
        const double decode = timedUs([&] { json::parse(body, "request"); });
        const std::string qasm = circuit::toQasm(in.pool[x.program]);
        const double parse = timedUs([&] { circuit::fromQasm(qasm); });
        const json::Value response = json::parse(x.body, "response");
        const double encode = timedUs([&] { json::write(response); });
        const double sens = timedUs([&] {
            const analysis::DataflowAnalysis dataflow(s.result.mapped.physical,
                                                      snapshot.durations);
            analysis::sensitivityJson(analysis::analyzeSensitivity(
                dataflow, in.graph, snapshot));
        });
        const Outcome outcome = outcomeOf(s);
        counts[static_cast<int>(outcome)] += 1.0;
        double record = 0.0;
        if (outcome == Outcome::Miss) {
            record = timedUs([&] {
                recorder.record(in.pool[x.program], snapshot, s.result);
            });
            recordUs.push_back(record);
            compileMs.push_back(s.result.compileMs);
        } else if (outcome == Outcome::Exact) {
            exactUs.push_back(s.result.compileMs * 1e3);
        } else if (outcome == Outcome::Bound) {
            boundUs.push_back(s.result.compileMs * 1e3);
        }
        decodeUs.push_back(decode);
        qasmUs.push_back(parse);
        encodeUs.push_back(encode);
        sensUs.push_back(sens);
        swaps += static_cast<double>(s.result.mapped.insertedSwaps);
        retries += s.result.attempts > 1 ? s.result.attempts - 1 : 0;

        const Clock::time_point h0 = times.start[i];
        const Clock::time_point h1 = times.end[i];
        const double handler = secondsBetween(h0, h1) * 1e6;
        handlerUs.push_back(handler);
        transportUs.push_back(secondsBetween(x.sent, x.received) * 1e6 -
                              handler);
        // Span tree: request (service) > handler (service) > the
        // re-executed layer calls, laid end to end from the handler's
        // start with their measured durations.
        const std::uint64_t root =
            spans.add("request", "service", 0, x.sent, x.received);
        spans.add("generator.lag", "harness", 0, x.due, x.sent);
        const std::uint64_t handlerSpan =
            spans.add("service.handle", "service", root, h0, h1);
        Clock::time_point at = h0;
        const auto child = [&](const char *name, const char *layer,
                               double us) {
            const Clock::time_point end =
                at + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(us));
            spans.add(name, layer, handlerSpan, at, end);
            at = end;
        };
        const double compileUs = s.result.compileMs * 1e3;
        child("common.json_decode", "common", decode);
        child("circuit.qasm_parse", "circuit", parse);
        child(outcome == Outcome::Miss ? "core.compile" : "store.serve",
              outcome == Outcome::Miss ? "core" : "store", compileUs);
        if (outcome == Outcome::Miss)
            child("store.record", "store", record);
        child("analysis.sensitivity", "analysis", sens);
        child("common.json_encode", "common", encode);
        unaccounted +=
            handler - (decode + parse + compileUs + record + sens + encode);
        wall += secondsBetween(x.sent, x.received) * 1e6;
    }
    const double lookups = counts[0] + counts[1] + counts[2] + counts[3];
    m["store.exact_hits"] = counts[0];
    m["store.delta_serves"] = counts[1];
    m["store.bound_serves"] = counts[2];
    m["store.misses"] = counts[3];
    m["store.hit_ratio"] = lookups > 0 ? 1.0 - counts[3] / lookups : 0.0;
    m["store.exact_serve_us_p50"] = percentile(exactUs, 0.5);
    m["store.bound_serve_us_p50"] = percentile(boundUs, 0.5);
    m["store.record_us_p50"] = percentile(recordUs, 0.5);
    m["core.compile_ms_p50"] = percentile(compileMs, 0.5);
    m["core.compile_ms_p99"] = percentile(compileMs, 0.99);
    m["core.swaps_per_job"] = lookups > 0 ? swaps / lookups : 0.0;
    m["core.retries"] = retries;
    m["circuit.qasm_parse_us_p50"] = percentile(qasmUs, 0.5);
    m["common.json_decode_us_p50"] = percentile(decodeUs, 0.5);
    m["common.json_encode_us_p50"] = percentile(encodeUs, 0.5);
    m["analysis.sensitivity_us_p50"] = percentile(sensUs, 0.5);
    m["service.handler_us_p50"] = percentile(handlerUs, 0.5);
    m["service.handler_us_p99"] = percentile(handlerUs, 0.99);
    m["service.transport_us_p50"] = percentile(transportUs, 0.5);
    m["service.rollover_ms"] = percentile(run.rolloverMs, 0.5);
    m["service.unaccounted_share"] = wall > 0 ? unaccounted / wall : 0.0;
    m["harness.gen_lag_ms_p99"] = percentile(lagMs, 0.99);

    std::vector<double> inspectMs, matrixMs, csvMs;
    const std::size_t used = 1 + run.rolloverMs.size();
    for (std::size_t e = 0; e < used; ++e) {
        const calibration::Snapshot &snapshot = in.epochs[e];
        Clock::time_point t0 = Clock::now();
        calibration::fromCsv(in.epochCsv[e], in.graph);
        Clock::time_point t1 = Clock::now();
        spans.add("calibration.csv_parse", "calibration", 0, t0, t1);
        csvMs.push_back(msBetween(t0, t1));
        t0 = Clock::now();
        core::inspectSnapshot(snapshot, in.graph,
                              core::CalibrationHandling::Sanitize);
        t1 = Clock::now();
        spans.add("calibration.inspect", "calibration", 0, t0, t1);
        inspectMs.push_back(msBetween(t0, t1));
        t0 = Clock::now();
        const graph::ReliabilityMatrix matrix(
            core::reliabilityCostGraph(in.graph, snapshot),
            snapshot.contentHash());
        t1 = Clock::now();
        spans.add("graph.matrix_build", "graph", 0, t0, t1);
        matrixMs.push_back(msBetween(t0, t1));
    }
    m["calibration.csv_parse_ms"] = percentile(csvMs, 0.5);
    m["calibration.inspect_ms"] = percentile(inspectMs, 0.5);
    m["graph.matrix_build_ms"] = percentile(matrixMs, 0.5);
}

std::vector<double>
latenciesMs(const std::vector<Exchange> &exchanges)
{
    std::vector<double> out;
    for (const Exchange &x : exchanges)
        out.push_back(msBetween(x.due, x.received));
    return out;
}

} // namespace

RunResult
runVaqdDrift(const Options &options)
{
    RunResult result;
    std::vector<double> setups;
    std::unique_ptr<Inputs> in;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        daemon.reset();
        core::invalidatePathCaches();
        in = makeInputs(options.seed);
        daemon = std::make_unique<Daemon>(*in, false, nullptr);
        warm(*in, *daemon);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    // Trace 0: 60 % open loop, 40 % closed loop. Trace 1: an
    // untraced and a traced open loop of half the run each.
    const double openSeconds =
        options.trace ? options.seconds / 2 : options.seconds * 0.6;
    const auto count = static_cast<std::size_t>(kRate * openSeconds);
    const OpenLoop plain = openLoop(*in, *daemon, count, options.seed);
    if (plain.rolloverFailed)
        result.tally.record(false, true, "calibration rollover failed");
    const std::vector<double> latency = latenciesMs(plain.exchanges);
    double rps = 0.0;
    std::vector<Exchange> closed;
    if (!options.trace) {
        // Re-warm on the last epoch first, so the closed loop measures
        // serving, not the recompiles the open loop already times.
        warm(*in, *daemon);
        rps = closedLoop(*in, *daemon, options.seconds * 0.4, options.seed,
                         closed, result.tally);
        // The closed loop runs on the last open-loop epoch.
        for (Exchange &x : closed)
            x.epoch = plain.rolloverMs.size();
    }
    const std::size_t shed = daemon->server.shedCount();
    daemon.reset();

    const std::vector<Served> served = check(*in, plain.exchanges,
                                             result.tally);
    check(*in, closed, result.tally);
    result.human = {
        {"req_p50_ms", percentile(latency, 0.5), "ms"},
        {"req_p99_ms", percentile(latency, 0.99), "ms"},
        {"closed_loop_rps", rps, "1/s"},
        {"geomean_pst", geomeanServedPst(served), "ratio"},
        {"error_rate", result.tally.errorRate(), "ratio"},
        {"requests", static_cast<double>(result.tally.attempted), "count"},
    };
    if (!options.trace) {
        result.metrics = {
            {"setup_s", percentile(setups, 0.5)},
            {"peak_rss_mb", peakRssMb()},
            {"ok_share", 1.0 - result.tally.errorRate()},
            {"throughput_per_s", rps},
            {"latency_p50_ms", percentile(latency, 0.5)},
            {"geomean_pst", geomeanServedPst(served)},
        };
        return result;
    }

    core::invalidatePathCaches();
    HandlerTimes times;
    times.start.resize(count);
    times.end.resize(count);
    daemon = std::make_unique<Daemon>(*in, true, &times);
    warm(*in, *daemon);
    obs::setEnabled(true);
    obs::Registry::global().reset();
    const core::PathCacheStats before = core::pathCacheStats();
    const OpenLoop traced = openLoop(*in, *daemon, count, options.seed);
    const core::PathCacheStats after = core::pathCacheStats();
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    obs::setEnabled(false);
    const std::size_t tracedShed = daemon->server.shedCount();
    daemon.reset();
    const std::vector<Served> tracedServed =
        check(*in, traced.exchanges, result.tally);

    Metrics &m = result.metrics;
    SpanLog spans;
    layerMetrics(*in, traced, tracedServed, times, spans, m);
    const auto hist = [&](const char *name) {
        const auto it = snap.histograms.find(name);
        return it == snap.histograms.end() ? 0.0 : it->second.sum;
    };
    m["core.allocate_s"] = hist("mapper.allocate.seconds");
    m["core.route_s"] = hist("mapper.route.seconds");
    m["core.score_s"] = hist("mapper.score.seconds");
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
    std::size_t refused = 0;
    for (const Exchange &x : traced.exchanges)
        refused += x.status == 503 ? 1 : 0;
    m["service.shed"] = static_cast<double>(shed + tracedShed + refused);
    m["quality.geomean_pst"] = geomeanServedPst(tracedServed);
    m["service.req_p99_ms"] = percentile(latency, 0.99);
    m["harness.trace_overhead"] =
        percentile(latenciesMs(traced.exchanges), 0.5) /
            percentile(latency, 0.5) -
        1.0;
    m["harness.input_fingerprint"] =
        static_cast<double>(in->fingerprint & ((1ULL << 52) - 1));
    spans.addSelfTimes(m);
    spans.write(options.traceDir + "/vaqd-drift-seed" +
                std::to_string(options.seed) + ".jsonl");
    return result;
}

} // namespace vaqbench

/**
 * @file
 * Daemon lifecycle suite: CompileService behind a real HttpServer
 * on an ephemeral loopback port, driven through httpExchange — the
 * same path vaqd serves. Covers concurrent mixed clients, quota
 * (429) and admission shedding (503), located 400s for malformed
 * bodies, graceful calibration rollover mid-flight (with artifact
 * delta reuse across the epoch), and the Prometheus /metrics
 * contract.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/wait.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataflow.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/compile_request.hpp"
#include "obs/metrics.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "store/artifact_store.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::service
{
namespace
{

// The service borrows its graph, so it refuses a temporary.
static_assert(std::is_constructible_v<CompileService,
                                      const topology::CouplingGraph &,
                                      calibration::Snapshot>);
static_assert(!std::is_constructible_v<CompileService,
                                       topology::CouplingGraph,
                                       calibration::Snapshot>);

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
fixtureQasm(const std::string &name)
{
    return readFile(std::string(VAQ_TEST_DATA_DIR) +
                    "/service/fixtures/" + name + ".qasm");
}

/** Compile-request body for one fixture program. */
std::string
compileBody(const std::string &program,
            const std::string &policy = "vqa+vqm",
            const std::string &clientId = "")
{
    json::Value body = json::Value::object();
    if (!clientId.empty())
        body.set("clientId", json::Value::string(clientId));
    body.set("qasm", json::Value::string(fixtureQasm(program)));
    json::Value spec = json::Value::object();
    spec.set("name", json::Value::string(policy));
    body.set("policy", std::move(spec));
    return json::write(body);
}

json::Value
parseBody(const HttpResponse &response)
{
    return json::parse(response.body, "response");
}

/** Service + server on an ephemeral port, torn down in order. */
class ServiceFixture
{
  public:
    explicit ServiceFixture(ServiceOptions options = {},
                            store::ArtifactStore *store = nullptr,
                            HttpServerOptions http = {})
        : graph(topology::ibmQ20Tokyo()),
          snapshot(calibration::SyntheticSource(
                       graph, calibration::SyntheticParams{}, 7)
                       .nextCycle()),
          service(graph, snapshot, withTelemetry(options), store),
          server(http,
                 [this](const HttpRequest &request) {
                     return service.handle(request);
                 })
    {
        obs::setEnabled(true);
    }

    ~ServiceFixture() { server.stop(); }

    int port() const { return server.port(); }

    static ServiceOptions withTelemetry(ServiceOptions options)
    {
        options.compile.telemetryEnabled = true;
        return options;
    }

    topology::CouplingGraph graph;
    calibration::Snapshot snapshot; ///< epoch-1 snapshot, kept
    CompileService service;
    HttpServer server;
};

TEST(ServiceEndpoints, HealthzReportsTheCurrentEpoch)
{
    ServiceFixture fx;
    const HttpResponse response =
        httpExchange(fx.port(), "GET", "/healthz");
    EXPECT_EQ(response.status, 200);
    const json::Value body = parseBody(response);
    EXPECT_EQ(body.find("status")->asString(), "ok");
    EXPECT_EQ(body.find("epoch")->asNumber(), 1.0);
    // A clean epoch still carries the quarantine summary shape,
    // with nothing pruned.
    const json::Value *quarantine = body.find("quarantine");
    ASSERT_NE(quarantine, nullptr) << response.body;
    EXPECT_EQ(json::write(*quarantine->find("qubits")), "[]");
    EXPECT_EQ(json::write(*quarantine->find("links")), "[]");
}

TEST(ServiceEndpoints, HealthzListsQuarantineAfterDegradedEpoch)
{
    ServiceFixture fx;
    calibration::Snapshot poisoned = fx.snapshot;
    poisoned.qubit(0).t1Us =
        std::numeric_limits<double>::quiet_NaN();
    fx.service.rollover(poisoned); // sanitizes, prunes qubit 0

    const HttpResponse response =
        httpExchange(fx.port(), "GET", "/healthz");
    ASSERT_EQ(response.status, 200);
    const json::Value body = parseBody(response);
    EXPECT_EQ(body.find("epoch")->asNumber(), 2.0);
    EXPECT_EQ(body.find("calibration")->asString(), "degraded");

    const json::Value *quarantine = body.find("quarantine");
    ASSERT_NE(quarantine, nullptr) << response.body;
    const json::Value *qubits = quarantine->find("qubits");
    ASSERT_EQ(qubits->size(), 1u) << response.body;
    EXPECT_EQ(qubits->item(0).find("qubit")->asNumber(), 0.0);
    EXPECT_NE(qubits->item(0)
                  .find("reason")
                  ->asString()
                  .find("non-finite"),
              std::string::npos)
        << response.body;
    // The healthy region shrank by the pruned qubit.
    EXPECT_LT(quarantine->find("healthyQubits")->asNumber(),
              static_cast<double>(fx.graph.numQubits()));
}

TEST(ServiceEndpoints, CompileMatchesInProcessResultBitIdentically)
{
    ServiceFixture fx;
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/compile", compileBody("bv4"));
    ASSERT_EQ(response.status, 200) << response.body;
    const core::CompileResult wire = core::compileResultFromJson(
        json::Cursor(parseBody(response)));
    EXPECT_EQ(wire.status, core::JobStatus::Ok);
    EXPECT_EQ(wire.policyUsed, "vqa+vqm");

    core::CompileRequest request;
    request.circuit = circuit::fromQasm(fixtureQasm("bv4"));
    request.policy = {.name = "vqa+vqm"};
    const core::CompileResult local =
        core::compile(request, fx.graph, fx.snapshot);
    EXPECT_EQ(circuit::toQasm(wire.mapped.physical),
              circuit::toQasm(local.mapped.physical));
    EXPECT_EQ(wire.mapped.initial.progToPhys(),
              local.mapped.initial.progToPhys());
    EXPECT_DOUBLE_EQ(wire.analyticPst, local.analyticPst);
}

TEST(ServiceEndpoints, CompileResponseCarriesSensitivityBlock)
{
    ServiceFixture fx;
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/compile", compileBody("bv4"));
    ASSERT_EQ(response.status, 200) << response.body;
    const json::Value body = parseBody(response);

    const json::Value *block = body.find("sensitivity");
    ASSERT_NE(block, nullptr) << response.body;
    // The closed form agrees with the pipeline's scored PST.
    const double pst = body.find("analyticPst")->asNumber();
    EXPECT_NEAR(block->find("pst")->asNumber(), pst,
                1e-9 * pst + 1e-12);
    EXPECT_LT(block->find("logPst")->asNumber(), 0.0);
    EXPECT_GT(block->find("opCount")->asNumber(), 0.0);
    const json::Value *params = block->find("parameters");
    ASSERT_NE(params, nullptr) << response.body;
    ASSERT_GT(params->size(), 0u);
    // Ranked by mass, descending.
    double prev = params->item(0).find("mass")->asNumber();
    for (std::size_t i = 1; i < params->size(); ++i) {
        const double mass =
            params->item(i).find("mass")->asNumber();
        EXPECT_LE(mass, prev);
        prev = mass;
    }
    // The response stays parseable as a plain CompileResult
    // (unknown-field tolerance on the wire format).
    const core::CompileResult wire = core::compileResultFromJson(
        json::Cursor(body));
    EXPECT_EQ(wire.status, core::JobStatus::Ok);
}

TEST(ServiceEndpoints, MalformedJsonIs400WithLocation)
{
    ServiceFixture fx;
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/compile", "{\"qasm\": nope}");
    EXPECT_EQ(response.status, 400);
    const json::Value body = parseBody(response);
    EXPECT_NE(body.find("error")->asString().find("request:1:"),
              std::string::npos)
        << response.body;
    EXPECT_EQ(body.find("category")->asString(), "usage");
}

TEST(ServiceEndpoints, MalformedQasmIs400WithParseLocation)
{
    ServiceFixture fx;
    json::Value body = json::Value::object();
    body.set("qasm", json::Value::string(
                         "OPENQASM 2.0;\nqreg q[2];\nbogus r;\n"));
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/compile", json::write(body));
    EXPECT_EQ(response.status, 400);
    const std::string error =
        parseBody(response).find("error")->asString();
    // The QASM parser reports the offending line.
    EXPECT_NE(error.find("3"), std::string::npos) << error;
}

TEST(ServiceEndpoints, UnknownPolicyIs400UnknownPathIs404)
{
    ServiceFixture fx;
    const HttpResponse bad = httpExchange(
        fx.port(), "POST", "/v1/compile",
        compileBody("bv4", "does-not-exist"));
    EXPECT_EQ(bad.status, 400) << bad.body;

    EXPECT_EQ(httpExchange(fx.port(), "GET", "/nope").status, 404);
    EXPECT_EQ(
        httpExchange(fx.port(), "GET", "/v1/compile").status, 405);
}

TEST(ServiceEndpoints, MetricsExportParsesAsPrometheus)
{
    ServiceFixture fx;
    ASSERT_EQ(httpExchange(fx.port(), "POST", "/v1/compile",
                           compileBody("bv4"))
                  .status,
              200);
    const HttpResponse response =
        httpExchange(fx.port(), "GET", "/metrics");
    ASSERT_EQ(response.status, 200);
    EXPECT_NE(response.contentType.find("text/plain"),
              std::string::npos);
    // Every line is a comment or `name value` with a legal metric
    // name — the whole Prometheus text-format contract we use.
    std::istringstream lines(response.body);
    std::string line;
    std::size_t samples = 0;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        // `name value` or `name{label="v",...} value`.
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string name =
            line.substr(0, std::min(brace, space));
        ASSERT_FALSE(name.empty());
        for (const char c : name) {
            ASSERT_TRUE(std::isalnum(
                            static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':')
                << line;
        }
        std::size_t valueAt = space + 1;
        if (brace != std::string::npos && brace < space) {
            const std::size_t close = line.find("} ", brace);
            ASSERT_NE(close, std::string::npos) << line;
            valueAt = close + 2;
        }
        // The value must parse as a double.
        ASSERT_NO_THROW(std::stod(line.substr(valueAt))) << line;
        ++samples;
    }
    EXPECT_GT(samples, 0u);
    EXPECT_NE(response.body.find("vaq_service_requests"),
              std::string::npos);
}

TEST(ServiceQuota, TokenBucketReturns429PerClient)
{
    ServiceOptions options;
    options.quotaRps = 0.001; // effectively no refill mid-test
    options.quotaBurst = 2.0;
    ServiceFixture fx(options);

    const std::string alice = compileBody("bv4", "baseline", "alice");
    EXPECT_EQ(httpExchange(fx.port(), "POST", "/v1/compile", alice)
                  .status,
              200);
    EXPECT_EQ(httpExchange(fx.port(), "POST", "/v1/compile", alice)
                  .status,
              200);
    const HttpResponse third =
        httpExchange(fx.port(), "POST", "/v1/compile", alice);
    EXPECT_EQ(third.status, 429) << third.body;
    // Rejections tell the client when to come back: integral
    // seconds, never below 1.
    const std::string *retryAfter = third.header("Retry-After");
    ASSERT_NE(retryAfter, nullptr);
    EXPECT_GE(std::stol(*retryAfter), 1);

    // Quotas are per clientId: bob is unaffected by alice's spend.
    EXPECT_EQ(httpExchange(
                  fx.port(), "POST", "/v1/compile",
                  compileBody("bv4", "baseline", "bob"))
                  .status,
              200);
}

TEST(ServiceConcurrency, MixedClientsAgreeAtEveryFanout)
{
    ServiceFixture fx;
    // Reference response body for a fixed request (compileMs is
    // wall-clock, so compare the deterministic fields).
    const auto fingerprintOf = [](const HttpResponse &response) {
        const core::CompileResult r = core::compileResultFromJson(
            json::Cursor(json::parse(response.body, "response")));
        return circuit::toQasm(r.mapped.physical) + "/" +
               std::to_string(r.analyticPst) + "/" + r.policyUsed;
    };
    const HttpResponse reference = httpExchange(
        fx.port(), "POST", "/v1/compile", compileBody("ghz6"));
    ASSERT_EQ(reference.status, 200);
    const std::string expected = fingerprintOf(reference);

    json::Value batch = json::Value::object();
    json::Value requests = json::Value::array();
    requests.push(json::parse(compileBody("bv4")));
    requests.push(json::parse(compileBody("qft5")));
    batch.set("requests", std::move(requests));
    const std::string batchBody = json::write(batch);

    for (const int clients : {1, 4, 8}) {
        std::atomic<int> failures{0};
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c]() {
                try {
                    if (c % 2 == 0) {
                        const HttpResponse r = httpExchange(
                            fx.port(), "POST", "/v1/compile",
                            compileBody("ghz6"));
                        if (r.status != 200 ||
                            fingerprintOf(r) != expected)
                            ++failures;
                    } else {
                        const HttpResponse r =
                            httpExchange(fx.port(), "POST",
                                         "/v1/batch", batchBody);
                        if (r.status != 200)
                            ++failures;
                        const json::Value body = json::parse(
                            r.body, "response");
                        if (body.find("results")->size() != 2)
                            ++failures;
                    }
                } catch (...) {
                    ++failures;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        EXPECT_EQ(failures.load(), 0) << clients << " clients";
    }
}

TEST(ServiceRollover, MidFlightRequestsDrainCleanly)
{
    ServiceFixture fx;
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<int> completed{0};
    std::vector<std::thread> compilers;
    for (int c = 0; c < 4; ++c) {
        compilers.emplace_back([&]() {
            while (!stop.load()) {
                try {
                    const HttpResponse r = httpExchange(
                        fx.port(), "POST", "/v1/compile",
                        compileBody("qft5"));
                    if (r.status != 200)
                        ++failures;
                    ++completed;
                } catch (...) {
                    ++failures;
                }
            }
        });
    }

    // Roll the calibration twice while compiles are in flight.
    calibration::SyntheticSource source(
        fx.graph, calibration::SyntheticParams{}, 21);
    for (int roll = 0; roll < 2; ++roll) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        const HttpResponse response = httpExchange(
            fx.port(), "POST", "/v1/calibration",
            calibration::toCsv(source.nextCycle(), fx.graph),
            "text/csv");
        EXPECT_EQ(response.status, 200) << response.body;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
    for (std::thread &t : compilers)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(completed.load(), 0);
    EXPECT_EQ(fx.service.epoch(), 3u);
    // The server kept serving afterwards.
    EXPECT_EQ(httpExchange(fx.port(), "GET", "/healthz").status,
              200);
}

/**
 * Rollovers race /v1/compile handlers: each request pins one epoch
 * (and that epoch's calibration context) for its whole compile, so
 * every 200 must equal a quiet in-process compile against the
 * snapshot of an epoch that was live while the request ran.
 */
TEST(ServiceRollover, RacingRolloversServeEachEpochsOwnCompile)
{
    ServiceFixture fx;
    calibration::SyntheticSource source(
        fx.graph, calibration::SyntheticParams{}, 31);
    // Epoch e (1-based) compiles against snapshots[e - 1].
    std::vector<calibration::Snapshot> snapshots{fx.snapshot};
    for (int roll = 0; roll < 3; ++roll)
        snapshots.push_back(source.nextCycle());
    const std::vector<std::string> programs{"bv4", "qft5"};

    struct Served
    {
        std::size_t program;
        std::uint64_t firstEpoch;
        std::uint64_t lastEpoch;
        core::CompileResult result;
    };
    std::mutex servedMutex;
    std::vector<Served> served;
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 4; ++c) {
        clients.emplace_back([&, c]() {
            for (std::size_t i = c; !stop.load(); ++i) {
                const std::size_t program = i % programs.size();
                const std::uint64_t first = fx.service.epoch();
                try {
                    const HttpResponse r = httpExchange(
                        fx.port(), "POST", "/v1/compile",
                        compileBody(programs[program]));
                    const std::uint64_t last = fx.service.epoch();
                    if (r.status != 200) {
                        ++failures;
                        continue;
                    }
                    const std::lock_guard<std::mutex> lock(
                        servedMutex);
                    served.push_back(
                        {program, first, last,
                         core::compileResultFromJson(
                             json::Cursor(parseBody(r)))});
                } catch (...) {
                    ++failures;
                }
            }
        });
    }
    for (std::size_t e = 1; e < snapshots.size(); ++e) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        fx.service.rollover(snapshots[e]);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    stop.store(true);
    for (std::thread &t : clients)
        t.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_FALSE(served.empty());

    // Quiet reference per (program, epoch): a private-context
    // compile of the same request, one at a time.
    std::vector<std::vector<core::CompileResult>> quiet(
        programs.size());
    for (std::size_t p = 0; p < programs.size(); ++p) {
        core::CompileRequest request;
        request.circuit = circuit::fromQasm(fixtureQasm(programs[p]));
        request.policy = {.name = "vqa+vqm"};
        for (const calibration::Snapshot &snapshot : snapshots)
            quiet[p].push_back(
                core::compile(request, fx.graph, snapshot));
    }
    for (const Served &s : served) {
        bool matched = false;
        for (std::uint64_t e = s.firstEpoch; e <= s.lastEpoch; ++e) {
            const core::CompileResult &ref =
                quiet[s.program][static_cast<std::size_t>(e - 1)];
            // The wire carries QASM text, so compare as text.
            matched = matched ||
                      (circuit::toQasm(s.result.mapped.physical) ==
                           circuit::toQasm(ref.mapped.physical) &&
                       s.result.mapped.initial == ref.mapped.initial &&
                       s.result.analyticPst == ref.analyticPst);
        }
        EXPECT_TRUE(matched)
            << programs[s.program] << " served between epochs "
            << s.firstEpoch << " and " << s.lastEpoch;
    }
    EXPECT_EQ(fx.service.epoch(), snapshots.size());
}

TEST(ServiceRollover, UnusableSnapshotIsRefusedAndKeepsTheOldEpoch)
{
    ServiceFixture fx;
    calibration::Snapshot dead = fx.snapshot;
    for (int q = 0; q < dead.numQubits(); ++q)
        dead.qubit(q).t1Us = -1.0; // every qubit gets quarantined

    // Over HTTP the CSV reader refuses invalid values at parse
    // time — a located usage error, old epoch untouched.
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/calibration",
        calibration::toCsv(dead, fx.graph), "text/csv");
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_EQ(fx.service.epoch(), 1u);

    // The programmatic rollover sanitizes instead, finds no healthy
    // region left, throws — and keeps the old epoch too.
    EXPECT_THROW(fx.service.rollover(dead), CalibrationError);
    EXPECT_EQ(fx.service.epoch(), 1u);

    // Still compiling on the old epoch.
    EXPECT_EQ(httpExchange(fx.port(), "POST", "/v1/compile",
                           compileBody("bv4"))
                  .status,
              200);
}

TEST(ServiceRollover, NegativeSyntheticSeedIsRefused)
{
    // The seed is unsigned: -1 is a usage error naming the field,
    // not seed 2^64 - 1, and the old epoch stays.
    ServiceFixture fx;
    const HttpResponse response =
        httpExchange(fx.port(), "POST", "/v1/calibration",
                     R"({"syntheticSeed":-1})");
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_NE(response.body.find("syntheticSeed: must be non-negative"),
              std::string::npos)
        << response.body;
    EXPECT_EQ(fx.service.epoch(), 1u);
    EXPECT_EQ(httpExchange(fx.port(), "POST", "/v1/calibration",
                           R"({"syntheticSeed":0})")
                  .status,
              200);
    EXPECT_EQ(fx.service.epoch(), 2u);
}

TEST(ServiceRollover, ArtifactDeltaReuseSurvivesTheEpochSwap)
{
    store::ArtifactStore store{store::StoreOptions{}};
    ServiceFixture fx(ServiceOptions{}, &store);

    // CSV serialization rounds to 6-8 significant digits, so a
    // snapshot only compares dependency-equal to itself after one
    // format->parse cycle (further cycles are value-stable). Feed
    // the daemon its own calibration as CSV first, so the recorded
    // artifact's dependencies live in CSV-representable values —
    // exactly what consecutive operator-posted calibration files
    // look like in production.
    const std::string baselineCsv =
        calibration::toCsv(fx.snapshot, fx.graph);
    ASSERT_EQ(httpExchange(fx.port(), "POST", "/v1/calibration",
                           baselineCsv, "text/csv")
                  .status,
              200);
    ASSERT_EQ(fx.service.epoch(), 2u);

    // Epoch 2: cold compile, recorded.
    const std::string body = compileBody("bv4", "vqm");
    const HttpResponse cold =
        httpExchange(fx.port(), "POST", "/v1/compile", body);
    ASSERT_EQ(cold.status, 200);
    const core::CompileResult first = core::compileResultFromJson(
        json::Cursor(parseBody(cold)));
    EXPECT_FALSE(first.fromStore);

    // Drift hardware the mapping does not touch: find an idle
    // physical qubit and degrade it. The artifact's calibration
    // dependencies survive, so the next epoch re-serves it as a
    // delta hit instead of recompiling.
    const analysis::DataflowAnalysis dataflow(
        first.mapped.physical);
    int idleQubit = -1;
    for (int q = 0; q < first.mapped.physical.numQubits(); ++q) {
        if (!dataflow.chain(q).touched())
            idleQubit = q;
    }
    ASSERT_GE(idleQubit, 0) << "bv4 unexpectedly uses all of q20";
    calibration::Snapshot drifted = calibration::fromCsv(
        baselineCsv, fx.graph, "baseline");
    drifted.qubit(idleQubit).t1Us *= 0.5;
    drifted.qubit(idleQubit).readoutError = 0.2;

    const HttpResponse roll = httpExchange(
        fx.port(), "POST", "/v1/calibration",
        calibration::toCsv(drifted, fx.graph), "text/csv");
    ASSERT_EQ(roll.status, 200) << roll.body;
    EXPECT_EQ(fx.service.epoch(), 3u);

    const HttpResponse warm =
        httpExchange(fx.port(), "POST", "/v1/compile", body);
    ASSERT_EQ(warm.status, 200);
    const core::CompileResult second = core::compileResultFromJson(
        json::Cursor(parseBody(warm)));
    EXPECT_TRUE(second.fromStore);
    EXPECT_TRUE(second.viaDelta);
    EXPECT_EQ(circuit::toQasm(second.mapped.physical),
              circuit::toQasm(first.mapped.physical));
    EXPECT_GT(store.stats().deltaReuse, 0u);
}

TEST(ServiceTransport, OversizedBodyIs413)
{
    HttpServerOptions http;
    http.maxBodyBytes = 512;
    ServiceFixture fx(ServiceOptions{}, nullptr, http);
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/compile",
        std::string(4096, 'x'));
    EXPECT_EQ(response.status, 413);
}

TEST(ServiceTransport, GarbageRequestLineIs400)
{
    ServiceFixture fx;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(fx.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string garbage = "NOT-HTTP\r\n\r\n";
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    std::string reply;
    char buffer[512];
    ssize_t got = 0;
    while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
        reply.append(buffer, static_cast<std::size_t>(got));
    ::close(fd);
    EXPECT_NE(reply.find("400"), std::string::npos) << reply;
}

TEST(ServiceTransport, AdmissionQueueShedsWith503UnderFlood)
{
    // One deliberately slow worker and a queue of one: most of a
    // concurrent burst must shed with an instant 503 instead of
    // queueing unboundedly.
    HttpServerOptions http;
    http.workerThreads = 1;
    http.queueDepth = 1;
    std::atomic<int> served{0};
    HttpServer slow(http, [&served](const HttpRequest &) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(200));
        ++served;
        HttpResponse response;
        response.body = "{}";
        return response;
    });

    std::atomic<int> ok{0};
    std::atomic<int> shed{0};
    std::atomic<int> shedWithoutRetryAfter{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c) {
        clients.emplace_back([&]() {
            try {
                const HttpResponse r =
                    httpExchange(slow.port(), "GET", "/");
                if (r.status == 200) {
                    ++ok;
                } else if (r.status == 503) {
                    ++shed;
                    // Sheds advertise when to come back.
                    const std::string *retryAfter =
                        r.header("Retry-After");
                    if (retryAfter == nullptr ||
                        std::stol(*retryAfter) < 1)
                        ++shedWithoutRetryAfter;
                }
            } catch (...) {
                // A connection reset during shedding also counts
                // as contained behavior; the assertions below only
                // require progress plus at least one shed.
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    slow.stop();

    EXPECT_GT(ok.load(), 0);
    EXPECT_GT(shed.load() + static_cast<int>(slow.shedCount()), 0);
    EXPECT_EQ(ok.load(), served.load());
    EXPECT_EQ(shedWithoutRetryAfter.load(), 0);
}

/** The VaqError a callable throws; fails the test when none. */
template <typename Fn>
VaqError
thrownBy(Fn fn)
{
    try {
        fn();
    } catch (const VaqError &e) {
        return e;
    }
    ADD_FAILURE() << "no VaqError thrown";
    return VaqError("none", ErrorCategory::Internal);
}

TEST(ServiceConfig, ZeroQueueDepthIsRefused)
{
    // A zero-depth admission queue would shed every connection.
    HttpServerOptions http;
    http.queueDepth = 0;
    const VaqError e = thrownBy([&] {
        HttpServer server(http, [](const HttpRequest &) {
            return HttpResponse{};
        });
    });
    EXPECT_EQ(e.category(), ErrorCategory::Usage);
    EXPECT_NE(std::string(e.what()).find("queueDepth"),
              std::string::npos)
        << e.what();
}

TEST(ServiceConfig, QuotaBurstBelowOneTokenIsRefused)
{
    // A bucket capped below one token answers 429 forever.
    const topology::CouplingGraph graph = topology::ibmQ5Tenerife();
    const calibration::Snapshot snapshot = test::uniformSnapshot(graph);
    ServiceOptions options;
    options.quotaRps = 5.0;
    options.quotaBurst = 0.5;
    const VaqError e = thrownBy(
        [&] { CompileService service(graph, snapshot, options); });
    EXPECT_EQ(e.category(), ErrorCategory::Usage);
    EXPECT_NE(std::string(e.what()).find("quotaBurst"),
              std::string::npos)
        << e.what();

    options.quotaBurst = 1.0;
    EXPECT_NO_THROW(CompileService(graph, snapshot, options));
    options.quotaRps = 0.0; // quotas off: the burst is unused
    options.quotaBurst = 0.5;
    EXPECT_NO_THROW(CompileService(graph, snapshot, options));
}

#ifdef VAQ_VAQD_BIN
TEST(VaqdConfig, ConfigsThatServeNothingExitWithTheUsageCode)
{
    const std::string err = ::testing::TempDir() + "vaqd_config.err";
    for (const auto &[args, field] :
         {std::pair<std::string, std::string>{"--queue-depth 0",
                                              "queueDepth"},
          {"--quota-rps 5 --quota-burst 0.5", "quotaBurst"}}) {
        const std::string command = std::string(VAQ_VAQD_BIN) +
                                    " --machine q5 --once " + args +
                                    " >/dev/null 2>" + err;
        const int status = std::system(command.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 2) << args;
        EXPECT_NE(readFile(err).find(field), std::string::npos) << args;
    }
}
#endif

#ifdef VAQ_VAQC_BIN
TEST(VaqcTelemetry, FlushedOnFailureExitPaths)
{
    // Regression: vaqc used to exit before writing --metrics-out /
    // --trace-out when the run failed. A usage failure (unknown
    // machine, exit 2) must still flush both files.
    const std::string dir = ::testing::TempDir();
    const std::string metrics = dir + "vaqc_flush_metrics.json";
    const std::string trace = dir + "vaqc_flush_trace.json";
    std::remove(metrics.c_str());
    std::remove(trace.c_str());
    const std::string command =
        std::string(VAQ_VAQC_BIN) + " --qasm " + VAQ_TEST_DATA_DIR +
        "/service/fixtures/bv4.qasm --machine no-such-machine" +
        " --metrics-out " + metrics + " --trace-out " + trace +
        " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    EXPECT_TRUE(std::ifstream(metrics).good())
        << "metrics not flushed on failure: " << metrics;
    EXPECT_TRUE(std::ifstream(trace).good())
        << "trace not flushed on failure: " << trace;
}

struct VaqcRun
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

/** Run vaqc with `args`, capturing stdout and stderr. */
VaqcRun
runVaqc(const std::string &args, const std::string &tag)
{
    const std::string dir = ::testing::TempDir();
    const std::string out = dir + "vaqc_" + tag + ".out";
    const std::string err = dir + "vaqc_" + tag + ".err";
    const std::string command = std::string(VAQ_VAQC_BIN) + " " +
                                args + " >" + out + " 2>" + err;
    const int status = std::system(command.c_str());
    VaqcRun run;
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    run.out = readFile(out);
    run.err = readFile(err);
    return run;
}

TEST(VaqcBatch, FailFastExitsOnFirstFailedJobWithoutReport)
{
    // bv4 fits IBM-Q5; ghz6 needs six qubits, a usage error under
    // every policy. One calibration cycle, so one job fails.
    const std::string fixtures =
        std::string(VAQ_TEST_DATA_DIR) + "/service/fixtures/";
    const std::string batch = "--batch --machine q5 --batch-cycles 1"
                              " --qasm " + fixtures + "bv4.qasm" +
                              " --qasm " + fixtures + "ghz6.qasm";

    const VaqcRun stopped =
        runVaqc(batch + " --fail-fast", "fail_fast");
    EXPECT_EQ(stopped.exitCode, 2);
    EXPECT_NE(stopped.err.find("usage error"), std::string::npos)
        << stopped.err;
    EXPECT_EQ(stopped.out.find("analytic-pst"), std::string::npos)
        << stopped.out;

    const VaqcRun contained = runVaqc(batch, "contained");
    EXPECT_EQ(contained.exitCode, 2);
    EXPECT_NE(contained.out.find("analytic-pst"), std::string::npos)
        << contained.out;
    EXPECT_NE(contained.out.find("1 ok, 0 degraded, 1 failed"),
              std::string::npos)
        << contained.out;
}
#endif

TEST(ServiceBatch, BatchCompilesAgainstTheEpochsContext)
{
    // /v1/batch hands the epoch's context to the batch compiler: the
    // snapshot is not inspected again and no table is rebuilt.
    ServiceFixture fx;
    json::Value batch = json::Value::object();
    json::Value requests = json::Value::array();
    for (const char *program : {"bv4", "ghz6", "qft5"})
        requests.push(json::parse(compileBody(program)));
    batch.set("requests", std::move(requests));
    const core::PathCacheStats before = core::pathCacheStats();
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/batch", json::write(batch));
    const core::PathCacheStats after = core::pathCacheStats();
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(parseBody(response).find("results")->size(), 3u);
    EXPECT_EQ(after.matrixMisses - before.matrixMisses, 0u);
}

TEST(ServiceBatch, SharedPolicyIsEnforcedWith400)
{
    ServiceFixture fx;
    json::Value batch = json::Value::object();
    json::Value requests = json::Value::array();
    requests.push(json::parse(compileBody("bv4", "vqm")));
    requests.push(json::parse(compileBody("bv4", "baseline")));
    batch.set("requests", std::move(requests));
    const HttpResponse response = httpExchange(
        fx.port(), "POST", "/v1/batch", json::write(batch));
    EXPECT_EQ(response.status, 400);
    EXPECT_NE(parseBody(response).find("error")->asString().find(
                  "share one policy"),
              std::string::npos)
        << response.body;
}

} // namespace
} // namespace vaq::service

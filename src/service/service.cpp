#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "analysis/dataflow.hpp"
#include "analysis/sens_report.hpp"
#include "analysis/sensitivity.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/json.hpp"
#include "fleet/stats.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace vaq::service
{

namespace
{

HttpResponse
jsonResponse(int status, json::Value body)
{
    HttpResponse response;
    response.status = status;
    response.body = json::write(body);
    return response;
}

HttpResponse
errorJson(int status, const std::string &message,
          ErrorCategory category)
{
    json::Value body = json::Value::object();
    body.set("error", json::Value::string(message));
    body.set("category", json::Value::string(
                             errorCategoryName(category)));
    return jsonResponse(status, std::move(body));
}

/** Cache key for one policy's mapper + fallback ladder. */
std::string
policyKey(const core::PolicySpec &spec)
{
    return spec.name + "|" + std::to_string(spec.mah) + "|" +
           std::to_string(spec.seed);
}

} // namespace

int
statusForCategory(ErrorCategory category)
{
    switch (category) {
    case ErrorCategory::Usage:
        return 400;
    case ErrorCategory::Calibration:
        return 503;
    case ErrorCategory::Routing:
    case ErrorCategory::Compile:
        return 422;
    case ErrorCategory::Timeout:
        return 504;
    case ErrorCategory::Internal:
        return 500;
    }
    return 500;
}

CompileService::CompileService(
    const topology::CouplingGraph &graph,
    calibration::Snapshot snapshot, ServiceOptions options,
    store::ArtifactStore *artifacts)
    : _graph(graph), _options(options), _store(artifacts)
{
    require(_options.quotaRps <= 0.0 || _options.quotaBurst >= 1.0,
            "quotaBurst must be at least 1 when quotaRps is set (a "
            "smaller bucket never holds a whole token)");
    _epoch = std::make_shared<const Epoch>(
        Epoch{1, epochContext(snapshot, "initial snapshot unusable")});
}

std::shared_ptr<const core::CalibrationContext>
CompileService::epochContext(const calibration::Snapshot &snapshot,
                             const std::string &rejected) const
{
    std::shared_ptr<const core::CalibrationContext> calibration =
        core::inspectCalibration(
            _graph, snapshot, core::CalibrationHandling::Sanitize,
            _options.compile.telemetryEnabled && obs::enabled());
    if (calibration->health().kind ==
        core::SnapshotHealth::Kind::Rejected) {
        throw CalibrationError(rejected + ": " +
                               calibration->health().note);
    }
    return calibration;
}

std::uint64_t
CompileService::epoch() const
{
    return currentEpoch()->id;
}

std::shared_ptr<const Epoch>
CompileService::currentEpoch() const
{
    const std::lock_guard<std::mutex> lock(_epochMutex);
    return _epoch;
}

std::uint64_t
CompileService::rollover(calibration::Snapshot snapshot)
{
    // Inspected and built outside the lock so readers never wait on
    // the tables. The artifact store is NOT invalidated: its delta
    // scan is exactly what re-serves untouched circuits across the
    // rollover.
    std::shared_ptr<const core::CalibrationContext> calibration =
        epochContext(snapshot, "rollover rejected");
    std::uint64_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(_epochMutex);
        id = _epoch->id + 1;
        _epoch = std::make_shared<const Epoch>(
            Epoch{id, std::move(calibration)});
    }
    if (obs::enabled())
        obs::count("service.rollovers");
    return id;
}

const CompileService::PolicyEntry &
CompileService::policyEntry(const core::PolicySpec &spec)
{
    const std::string key = policyKey(spec);
    const std::lock_guard<std::mutex> lock(_policyMutex);
    const auto it = _policies.find(key);
    if (it != _policies.end())
        return *it->second;
    // makeMapper throws VaqError (Usage) on unknown names; let it
    // propagate to the 400 mapping in the caller.
    core::Mapper mapper = core::makeMapper(spec);
    std::vector<core::Mapper> fallbacks =
        core::buildFallbackMappers(mapper.name(),
                                   _options.maxRetries);
    std::unique_ptr<store::ArtifactCacheAdapter> artifacts;
    if (_store != nullptr) {
        artifacts = std::make_unique<store::ArtifactCacheAdapter>(
            *_store, _graph, spec);
    }
    auto entry = std::make_unique<PolicyEntry>(
        std::move(mapper), std::move(fallbacks),
        std::move(artifacts));
    return *_policies.emplace(key, std::move(entry))
                .first->second;
}

bool
CompileService::admitClient(const std::string &clientId,
                            double *retryAfterSeconds)
{
    if (_options.quotaRps <= 0.0)
        return true;
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(_quotaMutex);
    Bucket &bucket = _buckets[clientId];
    if (bucket.last.time_since_epoch().count() == 0) {
        bucket.tokens = _options.quotaBurst;
        bucket.last = now;
    }
    const double elapsed =
        std::chrono::duration<double>(now - bucket.last).count();
    bucket.tokens =
        std::min(_options.quotaBurst,
                 bucket.tokens + elapsed * _options.quotaRps);
    bucket.last = now;
    if (bucket.tokens < 1.0) {
        // Time until the bucket refills to one whole token — the
        // honest Retry-After for this client.
        if (retryAfterSeconds != nullptr)
            *retryAfterSeconds =
                (1.0 - bucket.tokens) / _options.quotaRps;
        return false;
    }
    bucket.tokens -= 1.0;
    return true;
}

void
CompileService::sanitizeRequest(core::CompileRequest &request) const
{
    // A per-request thread count is the batch layer's knob, not
    // the client's.
    request.options.threads = _options.compile.threads;
    request.options.telemetryEnabled =
        _options.compile.telemetryEnabled;
    if (_options.maxDeadlineMs > 0.0) {
        request.deadlineMs =
            request.deadlineMs <= 0.0
                ? _options.maxDeadlineMs
                : std::min(request.deadlineMs,
                           _options.maxDeadlineMs);
    }
    request.maxRetries =
        std::clamp(request.maxRetries, 0, _options.maxRetries);
}

HttpResponse
CompileService::handle(const HttpRequest &request)
{
    if (obs::enabled())
        obs::count("service.requests");
    HttpResponse response = route(request);
    // Every 503 is a retryable condition (calibration epoch
    // unusable, store backpressure); tell well-behaved clients
    // when to come back instead of leaving them to guess. The
    // admission-queue 503 never reaches this point — http.cpp
    // sheds it with its own queue-drain estimate.
    if (response.status == 503 &&
        response.header("Retry-After") == nullptr)
        response.retryAfter(1.0);
    return response;
}

HttpResponse
CompileService::route(const HttpRequest &request)
{
    if (request.method == "GET" && request.path == "/healthz")
        return handleHealth();
    if (request.method == "GET" && request.path == "/metrics")
        return handleMetrics();
    if (request.method == "GET" &&
        request.path == "/v1/fleet/stats")
        return handleFleetStats();
    if (request.method == "POST" && request.path == "/v1/compile")
        return handleCompile(request);
    if (request.method == "POST" && request.path == "/v1/batch")
        return handleBatch(request);
    if (request.method == "POST" &&
        request.path == "/v1/calibration")
        return handleCalibration(request);
    if (request.path == "/healthz" || request.path == "/metrics" ||
        request.path == "/v1/fleet/stats" ||
        request.path == "/v1/compile" ||
        request.path == "/v1/batch" ||
        request.path == "/v1/calibration") {
        return errorJson(405,
                         "method not allowed on " + request.path,
                         ErrorCategory::Usage);
    }
    return errorJson(404, "no such endpoint: " + request.path,
                     ErrorCategory::Usage);
}

HttpResponse
CompileService::handleHealth() const
{
    const std::shared_ptr<const Epoch> epoch = currentEpoch();
    const core::SnapshotHealth &health = epoch->calibration->health();
    json::Value body = json::Value::object();
    body.set("status", json::Value::string("ok"));
    body.set("epoch", json::Value::number(epoch->id));
    body.set("machineQubits",
             json::Value::number(static_cast<std::int64_t>(
                 _graph.numQubits())));
    body.set("calibration",
             json::Value::string(
                 health.kind == core::SnapshotHealth::Kind::Degraded
                     ? "degraded"
                     : "clean"));
    // The quarantine summary: which qubits/links this epoch's
    // sanitize pass pruned and why (empty lists on a clean epoch).
    json::Value quarantine = json::Value::object();
    json::Value qubits = json::Value::array();
    json::Value links = json::Value::array();
    if (health.sanitized.has_value()) {
        const calibration::QuarantineReport &report =
            health.sanitized->report;
        for (const calibration::QuarantinedQubit &q :
             report.qubits) {
            json::Value entry = json::Value::object();
            entry.set("qubit",
                      json::Value::number(
                          static_cast<std::int64_t>(q.qubit)));
            entry.set("reason", json::Value::string(q.reason));
            qubits.push(std::move(entry));
        }
        for (const calibration::QuarantinedLink &l : report.links) {
            json::Value entry = json::Value::object();
            entry.set("a", json::Value::number(
                               static_cast<std::int64_t>(l.a)));
            entry.set("b", json::Value::number(
                               static_cast<std::int64_t>(l.b)));
            entry.set("reason", json::Value::string(l.reason));
            links.push(std::move(entry));
        }
        quarantine.set(
            "healthyQubits",
            json::Value::number(static_cast<std::int64_t>(
                health.sanitized->healthyRegion.size())));
    }
    quarantine.set("qubits", std::move(qubits));
    quarantine.set("links", std::move(links));
    body.set("quarantine", std::move(quarantine));
    return jsonResponse(200, std::move(body));
}

HttpResponse
CompileService::handleFleetStats() const
{
    json::Value body = fleet::StatsHub::global().snapshot();
    // Ambient fleet.* counters ride along so one GET shows both
    // the published summaries and the live counter state.
    json::Value counters = json::Value::object();
    const obs::MetricsSnapshot metrics =
        obs::Registry::global().snapshot();
    for (const auto &[name, value] : metrics.counters) {
        if (name.rfind("fleet.", 0) == 0)
            counters.set(name,
                         json::Value::number(
                             static_cast<std::int64_t>(value)));
    }
    body.set("counters", std::move(counters));
    return jsonResponse(200, std::move(body));
}

HttpResponse
CompileService::handleMetrics() const
{
    HttpResponse response;
    response.status = 200;
    response.contentType = "text/plain; version=0.0.4";
    response.body = obs::exportPrometheus(
        obs::Registry::global().snapshot());
    return response;
}

HttpResponse
CompileService::handleCompile(const HttpRequest &httpRequest)
{
    core::CompileRequest request;
    try {
        const json::Value body =
            json::parse(httpRequest.body, "request");
        request = core::compileRequestFromJson(json::Cursor(body));
    } catch (const VaqError &e) {
        return errorJson(statusForCategory(e.category()),
                         e.message(), e.category());
    }
    double retryAfterSeconds = 0.0;
    if (!admitClient(request.clientId, &retryAfterSeconds)) {
        if (obs::enabled())
            obs::count("service.quota.rejected");
        HttpResponse response = errorJson(
            429, "client quota exhausted, retry later",
            ErrorCategory::Usage);
        response.retryAfter(retryAfterSeconds);
        return response;
    }
    sanitizeRequest(request);

    const std::shared_ptr<const Epoch> epoch = currentEpoch();
    core::CompileResult result;
    try {
        const PolicyEntry &entry = policyEntry(request.policy);
        core::CompileContext context;
        context.mapper = &entry.mapper;
        context.fallbacks = &entry.fallbacks;
        context.calibration = epoch->calibration.get();
        context.artifactCache = entry.artifacts.get();
        result = core::compile(request, _graph,
                               epoch->calibration->snapshot(), context);
        // Offer the result to the store so the next epoch's delta
        // scan (and identical re-requests) can skip the mapper; the
        // adapter keeps fresh Ok compiles only. The store locks
        // internally, so concurrent worker records are safe; service
        // responses never depend on what other in-flight requests
        // stored (lookups happened above).
        if (entry.artifacts) {
            entry.artifacts->record(request.circuit,
                                    epoch->calibration->snapshot(),
                                    result);
        }
    } catch (const VaqError &e) {
        return errorJson(statusForCategory(e.category()),
                         e.message(), e.category());
    }

    const int status = result.ok()
                           ? 200
                           : statusForCategory(result.errorCategory);
    json::Value body = core::toJson(result);
    // Successful compiles against a clean snapshot also report the
    // drift-sensitivity block: closed-form logPST, the top
    // first-order coefficients, and (for staleness-bound serves)
    // the certified bound. Clients decide recompile cadence from
    // this without a second round trip.
    const core::CalibrationContext &calibration = *epoch->calibration;
    if (result.ok() && calibration.health().kind ==
                           core::SnapshotHealth::Kind::Clean) {
        try {
            const analysis::DataflowAnalysis dataflow(
                result.mapped.physical,
                calibration.snapshot().durations);
            const analysis::SensitivityProfile profile =
                analysis::analyzeSensitivity(dataflow, _graph,
                                             calibration.snapshot());
            json::Value block = analysis::sensitivityJson(profile);
            if (result.boundReuse) {
                block.set("servedOnBound",
                          json::Value::boolean(true));
                block.set(
                    "stalenessBound",
                    json::Value::number(result.stalenessBound));
            }
            body.set("sensitivity", std::move(block));
        } catch (const VaqError &) {
            // Unexecutable mapping (should not happen for ok()
            // results); serve the response without the block.
        }
    }
    return jsonResponse(status, std::move(body));
}

HttpResponse
CompileService::handleBatch(const HttpRequest &httpRequest)
{
    std::vector<core::CompileRequest> requests;
    try {
        const json::Value body =
            json::parse(httpRequest.body, "request");
        const json::Cursor cursor(body);
        const json::Cursor list = cursor.at("requests");
        const std::size_t count = list.arraySize();
        require(count > 0, "batch needs at least one request");
        requests.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            requests.push_back(
                core::compileRequestFromJson(list.at(i)));
        const std::string policy =
            json::write(core::toJson(requests.front().policy));
        for (std::size_t i = 1; i < count; ++i) {
            require(json::write(core::toJson(
                        requests[i].policy)) == policy,
                    "batch requests must share one policy");
        }
    } catch (const VaqError &e) {
        return errorJson(statusForCategory(e.category()),
                         e.message(), e.category());
    }

    double retryAfterSeconds = 0.0;
    if (!admitClient(requests.front().clientId,
                     &retryAfterSeconds)) {
        if (obs::enabled())
            obs::count("service.quota.rejected");
        HttpResponse response = errorJson(
            429, "client quota exhausted, retry later",
            ErrorCategory::Usage);
        response.retryAfter(retryAfterSeconds);
        return response;
    }
    for (core::CompileRequest &request : requests)
        sanitizeRequest(request);

    const std::shared_ptr<const Epoch> epoch = currentEpoch();
    std::vector<core::BatchResult> results;
    try {
        const PolicyEntry &entry =
            policyEntry(requests.front().policy);
        const core::CompileRequest &first = requests.front();
        core::BatchOptions options;
        options.compile = first.options;
        options.compile.threads = _options.batchThreads;
        options.scoreResults = first.scoreResult;
        options.maxRetries = first.maxRetries;
        options.jobDeadlineMs = first.deadlineMs;
        options.lint = first.lint;
        options.lintOptions = first.lintOptions;
        options.artifactCache = entry.artifacts.get();
        std::vector<circuit::Circuit> circuits;
        circuits.reserve(requests.size());
        for (const core::CompileRequest &request : requests)
            circuits.push_back(request.circuit);
        core::BatchCompiler compiler(entry.mapper, _graph,
                                     options);
        results = compiler.compileAll(circuits, {epoch->calibration});
    } catch (const VaqError &e) {
        return errorJson(statusForCategory(e.category()),
                         e.message(), e.category());
    }

    json::Value body = json::Value::object();
    body.set("epoch", json::Value::number(epoch->id));
    json::Value list = json::Value::array();
    for (const core::BatchResult &result : results)
        list.push(core::toJson(result));
    body.set("results", std::move(list));
    return jsonResponse(200, std::move(body));
}

HttpResponse
CompileService::handleCalibration(const HttpRequest &httpRequest)
{
    calibration::Snapshot snapshot(_graph);
    try {
        // Body shape decides the format: a calibration CSV line
        // can never open with '{', so a JSON object is
        // unambiguous regardless of the Content-Type a client
        // happened to send.
        const std::size_t first =
            httpRequest.body.find_first_not_of(" \t\r\n");
        const bool isJson = first != std::string::npos &&
                            httpRequest.body[first] == '{';
        if (isJson) {
            const json::Value body =
                json::parse(httpRequest.body, "calibration");
            const json::Cursor cursor(body);
            if (const auto csv = cursor.get("csv")) {
                snapshot = calibration::fromCsv(
                    csv->asString(), _graph, "calibration");
            } else if (const auto seed =
                           cursor.get("syntheticSeed")) {
                // A negative seed would wrap to a huge one.
                const std::int64_t value = seed->asInt();
                if (value < 0)
                    throw VaqError(seed->path() +
                                   ": must be non-negative");
                snapshot =
                    calibration::SyntheticSource(
                        _graph, calibration::SyntheticParams{},
                        static_cast<std::uint64_t>(value))
                        .nextCycle();
            } else {
                throw VaqError("calibration body needs \"csv\" or "
                               "\"syntheticSeed\"");
            }
        } else {
            snapshot = calibration::fromCsv(httpRequest.body,
                                            _graph, "calibration");
        }
    } catch (const VaqError &e) {
        return errorJson(400, e.message(), ErrorCategory::Usage);
    }

    try {
        const std::uint64_t id = rollover(std::move(snapshot));
        const std::shared_ptr<const Epoch> epoch = currentEpoch();
        json::Value body = json::Value::object();
        body.set("epoch", json::Value::number(id));
        const core::SnapshotHealth &health =
            epoch->calibration->health();
        body.set("calibration",
                 json::Value::string(
                     health.kind == core::SnapshotHealth::Kind::Degraded
                         ? "degraded"
                         : "clean"));
        body.set("note", json::Value::string(health.note));
        return jsonResponse(200, std::move(body));
    } catch (const VaqError &e) {
        return errorJson(statusForCategory(e.category()),
                         e.message(), e.category());
    }
}

} // namespace vaq::service

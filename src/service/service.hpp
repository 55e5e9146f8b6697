/**
 * @file
 * CompileService: the vaqd daemon's brain, one HTTP transport away
 * from core::compile.
 *
 * The paper's operational premise (Section 3.3) is that
 * variability-aware mapping recompiles every queued program against
 * each fresh calibration epoch — which only pays off if compilation
 * is a long-lived service holding warm caches across epochs. This
 * class is that service:
 *
 *  - `POST /v1/compile`  one CompileRequest JSON in, one
 *    CompileResult JSON out (core/compile_request.hpp wire forms).
 *  - `POST /v1/batch`    {"requests": [...]} sharing one policy,
 *    executed on BatchCompiler's ThreadPool; {"results": [...]}.
 *  - `POST /v1/calibration`  graceful epoch rollover: the new
 *    snapshot (CSV text, or JSON with "csv"/"syntheticSeed") is
 *    inspected once and swapped in as an immutable epoch with its
 *    own calibration context, which /v1/compile and /v1/batch both
 *    compile against. In-flight requests finish on the epoch
 *    they started with (shared_ptr pinning), and the artifact
 *    store's delta scan re-serves untouched circuits on the next
 *    compile (store.delta_reuse counts them).
 *  - `GET /metrics`      Prometheus text off the vaq_obs registry.
 *  - `GET /healthz`      liveness + current epoch + the epoch's
 *    quarantine summary (pruned qubits/links with reasons).
 *  - `GET /v1/fleet/stats`  published fleet summaries
 *    (fleet::StatsHub) + the fleet.* counters.
 *
 * Every response carries the PR-4 error taxonomy mapped onto HTTP
 * status codes (statusForCategory): Usage -> 400, Calibration ->
 * 503, Routing/Compile -> 422, Timeout -> 504, Internal -> 500,
 * plus 429 for quota exhaustion and 503 for a full admission queue
 * (http.hpp). Per-client token buckets meter requests by the
 * CompileRequest's clientId.
 */
#ifndef VAQ_SERVICE_SERVICE_HPP
#define VAQ_SERVICE_SERVICE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_request.hpp"
#include "service/http.hpp"
#include "store/adapter.hpp"
#include "store/artifact_store.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::service
{

/** ErrorCategory -> HTTP status (the taxonomy table in DESIGN.md
 *  section 11). */
int statusForCategory(ErrorCategory category);

/** Service-level knobs (transport knobs live in HttpServerOptions). */
struct ServiceOptions
{
    /** Per-compile defaults applied when a request omits them. */
    core::CompileOptions compile;
    /** Default retry ladder depth for requests that omit it. */
    int maxRetries = 2;
    /** Per-attempt deadline cap, ms; a request may ask for less
     *  but never more (0 = uncapped). */
    double maxDeadlineMs = 0.0;
    /** Sustained per-client request rate (tokens/second); 0
     *  disables quotas. */
    double quotaRps = 0.0;
    /** Token-bucket burst capacity; at least 1 when quotas are
     *  on. */
    double quotaBurst = 8.0;
    /** Worker threads for /v1/batch bursts (0 = hardware). */
    std::size_t batchThreads = 0;
};

/**
 * One calibration epoch: an id plus the context of its inspected
 * snapshot (the published snapshot, its quarantine verdict and the
 * tables every compile of the epoch shares). Handlers pin the epoch
 * with a shared_ptr for the length of one request, so a rollover
 * mid-request never mutates state under a running compile — old
 * epochs drain with their context, new requests see the new epoch.
 */
struct Epoch
{
    std::uint64_t id = 0;
    std::shared_ptr<const core::CalibrationContext> calibration;
};

/**
 * The daemon's request handler. Thread-safe: handle() is called
 * concurrently from HttpServer workers. The machine graph and the
 * optional artifact store must outlive the service. Artifact keys
 * include the policy spec, so the service builds one
 * store::ArtifactCacheAdapter per policy it has seen (inside the
 * PolicyEntry cache) rather than sharing one hook — a single
 * fixed-spec adapter would serve one policy's mapping to another.
 * Concurrent lookup/record is safe: the store locks internally.
 */
class CompileService
{
  public:
    CompileService(const topology::CouplingGraph &graph,
                   calibration::Snapshot snapshot,
                   ServiceOptions options = {},
                   store::ArtifactStore *artifacts = nullptr);
    /** The service borrows the graph: a temporary would dangle. */
    CompileService(const topology::CouplingGraph &&,
                   calibration::Snapshot, ServiceOptions = {},
                   store::ArtifactStore * = nullptr) = delete;

    /** Route one request (the HttpServer handler). */
    HttpResponse handle(const HttpRequest &request);

    /** Current calibration epoch id (starts at 1). */
    std::uint64_t epoch() const;

    /**
     * Programmatic rollover (the /v1/calibration POST body goes
     * through this too): sanitize, build the epoch's calibration
     * context, swap the epoch. Throws CalibrationError when the
     * snapshot's healthy region is unusable — the old epoch stays.
     */
    std::uint64_t rollover(calibration::Snapshot snapshot);

  private:
    struct PolicyEntry
    {
        core::Mapper mapper;
        std::vector<core::Mapper> fallbacks;
        /** Policy-keyed store hook (null without a store). */
        std::unique_ptr<store::ArtifactCacheAdapter> artifacts;

        PolicyEntry(
            core::Mapper mapper_in,
            std::vector<core::Mapper> fallbacks_in,
            std::unique_ptr<store::ArtifactCacheAdapter>
                artifacts_in)
            : mapper(std::move(mapper_in)),
              fallbacks(std::move(fallbacks_in)),
              artifacts(std::move(artifacts_in))
        {}
    };

    HttpResponse route(const HttpRequest &request);
    HttpResponse handleCompile(const HttpRequest &request);
    HttpResponse handleBatch(const HttpRequest &request);
    HttpResponse handleCalibration(const HttpRequest &request);
    HttpResponse handleMetrics() const;
    HttpResponse handleHealth() const;
    HttpResponse handleFleetStats() const;

    std::shared_ptr<const Epoch> currentEpoch() const;
    /** Inspect a snapshot for a new epoch; a Rejected one throws
     *  CalibrationError("<rejected>: <note>"). */
    std::shared_ptr<const core::CalibrationContext>
    epochContext(const calibration::Snapshot &snapshot,
                 const std::string &rejected) const;
    const PolicyEntry &policyEntry(const core::PolicySpec &spec);
    /** True when the client has a token. On rejection fills
     *  `retryAfterSeconds` with the bucket's refill time. */
    bool admitClient(const std::string &clientId,
                     double *retryAfterSeconds);
    void sanitizeRequest(core::CompileRequest &request) const;

    const topology::CouplingGraph &_graph;
    ServiceOptions _options;
    store::ArtifactStore *_store;

    mutable std::mutex _epochMutex;
    std::shared_ptr<const Epoch> _epoch;

    std::mutex _policyMutex;
    std::map<std::string, std::unique_ptr<PolicyEntry>> _policies;

    struct Bucket
    {
        double tokens = 0.0;
        std::chrono::steady_clock::time_point last{};
    };
    std::mutex _quotaMutex;
    std::map<std::string, Bucket> _buckets;
};

} // namespace vaq::service

#endif // VAQ_SERVICE_SERVICE_HPP

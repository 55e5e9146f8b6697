/**
 * @file
 * The unified compile entry point: one request struct, one result
 * struct, one pipeline.
 *
 * A CompileRequest carries the full bundle of PolicySpec /
 * CompileOptions / lint / store knobs, and core::compile() runs the
 * one per-job pipeline (quarantine -> pre-lint -> artifact lookup or
 * attempt ladder -> scoring -> post-lint). Every caller is a thin
 * adapter over it, and every compile attempt inside it is one
 * Mapper::map onto the snapshot's CalibrationContext (the full
 * machine on a Clean snapshot, the healthy region on a quarantined
 * one; core/compile_cache.hpp):
 *
 *  - BatchCompiler builds one request template per batch plus a
 *    CompileContext of pre-built shared pieces (mapper, fallback
 *    ladder, linter, calibration context, artifact hook) so the
 *    burst keeps its per-batch precomputation and bit-identity
 *    guarantees.
 *  - vaqc and the vaqd daemon construct requests directly; the
 *    daemon's wire format is exactly the JSON (de)serialization
 *    declared at the bottom of this header.
 *
 * The JSON forms are deterministic (insertion-ordered members,
 * shortest-round-trip numbers via common/json.hpp) so golden files
 * stay byte-stable, and parsing is unknown-field tolerant with
 * field-path errors ("$.policy.mah: expected number, got string"),
 * mirroring the artifact store's total-parse discipline.
 */
#ifndef VAQ_CORE_COMPILE_REQUEST_HPP
#define VAQ_CORE_COMPILE_REQUEST_HPP

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/linter.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_options.hpp"
#include "core/mapped_circuit.hpp"
#include "core/mapper.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/** Terminal state of one compile. */
enum class JobStatus
{
    Ok,       ///< primary policy, full machine
    Degraded, ///< fallback policy and/or quarantined-machine region
    Failed,   ///< no attempt produced a mapping
    TimedOut, ///< every viable attempt hit the per-job deadline
};

/** Stable lowercase name ("ok", "degraded", "failed", "timed-out"). */
const char *jobStatusName(JobStatus status);

/** Parse a jobStatusName spelling; throws VaqError if unknown. */
JobStatus jobStatusFromName(const std::string &name);

/** Stable lowercase name ("trust", "validate", "sanitize"). */
const char *calibrationHandlingName(CalibrationHandling handling);

/** Parse a calibrationHandlingName spelling; throws if unknown. */
CalibrationHandling
calibrationHandlingFromName(const std::string &name);

/**
 * Everything one compile needs, in one value. Defaults reproduce a
 * plain `makeMapper({}).map(...)` with batch-grade robustness:
 * sanitize quarantine on, two fallback retries, no lint, no
 * deadline.
 */
struct CompileRequest
{
    /** The logical program. Owned by value — this is the shape a
     *  daemon needs (the request outlives its transport buffer);
     *  in-process adapters that already own the circuit use
     *  compileCircuit() and skip the copy. */
    circuit::Circuit circuit = circuit::Circuit(1);
    /** Policy to compile with (ignored when CompileContext supplies
     *  a pre-built mapper). */
    PolicySpec policy;
    /** Cache/telemetry/threads/sim-engine knobs. */
    CompileOptions options;
    /** Run the lint passes: pre-compile on the logical circuit
     *  (error-severity Usage findings fail the job), post-compile
     *  on the mapped output (counted, never fatal). */
    bool lint = false;
    /** Rule selection and thresholds for the lint passes. */
    analysis::LintOptions lintOptions;
    /** Per-attempt cooperative deadline in milliseconds (0 = none).
     *  Expired attempts throw TimeoutError; an exhausted ladder
     *  reports JobStatus::TimedOut. */
    double deadlineMs = 0.0;
    /** Fallback attempts after the primary policy (ladder length is
     *  also capped by how far the policy can degrade). */
    int maxRetries = 2;
    /** Snapshot trust level (see CalibrationHandling). */
    CalibrationHandling calibration = CalibrationHandling::Sanitize;
    /** Fill CompileResult::analyticPst (skip to save scoring time). */
    bool scoreResult = true;
    /** Caller identity for service quotas and telemetry; empty for
     *  in-process callers. */
    std::string clientId;
};

/**
 * Outcome of one compile: the mapping and its score, the status of
 * the containment layer, cache provenance, captured diagnostics and
 * wall timing. BatchResult adds the job indices.
 */
struct CompileResult
{
    /** Meaningful only when ok(); failed jobs hold a 1x1 stub. */
    MappedCircuit mapped = MappedCircuit(1, 1);
    /** Compile-time PST estimate; 0 when scoring is disabled. */
    double analyticPst = 0.0;
    JobStatus status = JobStatus::Ok;
    /** Category of the final failure; meaningful when !ok(). */
    ErrorCategory errorCategory = ErrorCategory::Usage;
    /** Final failure message; empty when ok(). */
    std::string error;
    /** Why a Degraded result is degraded (fallback policy and/or
     *  quarantine summary); empty otherwise. */
    std::string note;
    /** Compile attempts consumed (>= 1 unless rejected up front
     *  or served from the artifact cache — both report 0). */
    int attempts = 1;
    /** Name of the policy that produced `mapped`; empty on failure. */
    std::string policyUsed;
    /** Diagnostic counts from the pre-compile (logical) lint pass;
     *  zero when linting is off. */
    std::size_t lintErrors = 0;
    std::size_t lintWarnings = 0;
    /** Diagnostic counts from the post-compile pass over the mapped
     *  circuit; zero when linting is off or the job failed. */
    std::size_t mappedLintErrors = 0;
    std::size_t mappedLintWarnings = 0;
    /** Findings of the pre-compile lint pass (empty when linting is
     *  off). */
    std::vector<analysis::Diagnostic> diagnostics;
    /** True when `mapped` came from the artifact cache (exact,
     *  delta or bound serve) instead of the attempt ladder;
     *  attempts is 0 then. */
    bool fromStore = false;
    /** True when the store hit came through delta reuse (the stored
     *  artifact's calibration dependencies survived a snapshot
     *  change) rather than an exact key match. */
    bool viaDelta = false;
    /** True when the store hit was served on a certified staleness
     *  bound (store::StoreOptions::stalenessTol); analyticPst then
     *  carries the exact analytic shift. In-process only: not
     *  serialized by toJson. */
    bool boundReuse = false;
    /** Certified |delta logPST| bound of a boundReuse serve. */
    double stalenessBound = 0.0;
    /** Wall-clock time spent in compile(), milliseconds. */
    double compileMs = 0.0;

    /** True when `mapped` is executable (Ok or Degraded). */
    bool ok() const
    {
        return status == JobStatus::Ok ||
               status == JobStatus::Degraded;
    }
};

/**
 * Compile-artifact cache consulted around each compile. Implemented
 * by store::ArtifactCacheAdapter over the persistent
 * content-addressed store (store/artifact_store.hpp); core only
 * sees this interface so the store library can depend on core types
 * without a cycle.
 *
 * Threading contract: lookup() is called concurrently from worker
 * threads and must be thread-safe; record() is only called from the
 * thread that owns the batch/service loop. BatchCompiler defers all
 * record() calls to the end of the batch so lookups observe the
 * store exactly as it was when the batch started — that is what
 * keeps batch results bit-identical across thread counts even when
 * one batch contains duplicate jobs. (core::compile itself never
 * records; recording policy belongs to the adapter layer.)
 */
class ArtifactCacheHook
{
  public:
    virtual ~ArtifactCacheHook() = default;

    /** Best stored artifact for (logical, snapshot) under the
     *  machine and policy the cache was configured with, or nullopt
     *  on a miss. compile() reads only the mapping, analyticPst,
     *  policyUsed and the provenance flags of the result; the
     *  analyticPst is the PST recorded at store time (shifted by
     *  the exact analytic delta on a boundReuse serve). */
    virtual std::optional<CompileResult>
    lookup(const circuit::Circuit &logical,
           const calibration::Snapshot &snapshot) = 0;

    /** Offer any compile result; only a fresh Ok one (not
     *  fromStore) is kept. Ok implies a Clean snapshot, the primary
     *  policy and one attempt. */
    virtual void record(const circuit::Circuit &logical,
                        const calibration::Snapshot &snapshot,
                        const CompileResult &result) = 0;
};

/**
 * Pre-built shared pieces a caller can inject so repeated compiles
 * (a batch burst, a daemon serving many requests) do per-batch work
 * once instead of once per job. Every field is optional; compile()
 * builds whatever is missing from the request. Injected pointers
 * are borrowed — they must outlive the call.
 */
struct CompileContext
{
    /** Primary mapper (else makeMapper(request.policy) per call). */
    const Mapper *mapper = nullptr;
    /** Fallback ladder mappers, primary excluded (else built from
     *  the primary's name and request.maxRetries). */
    const std::vector<Mapper> *fallbacks = nullptr;
    /** Shared linter (else built from request.lintOptions when
     *  request.lint is set). */
    const analysis::Linter *linter = nullptr;
    /** The inspected snapshot's context (else inspectCalibration()
     *  under request.calibration). Must have been built from the
     *  compile's graph and snapshot; with options.cacheEnabled off
     *  only its verdict is used, by a private context. */
    const CalibrationContext *calibration = nullptr;
    /** Artifact cache consulted before compiling on Clean
     *  snapshots. compile() only looks up — recording stays with
     *  the caller (see the ArtifactCacheHook threading contract). */
    ArtifactCacheHook *artifactCache = nullptr;
};

/**
 * The canonical compile pipeline: quarantine -> pre-lint ->
 * artifact lookup or attempt ladder (policy degradation under
 * optional cooperative deadlines) -> scoring -> post-lint. A store
 * serve stands in for the attempt ladder only: both lint passes run
 * on it as on a fresh mapping. Faults are
 * contained into the result (status/category/message); a caller
 * that wants an exception throws VaqError(result.error,
 * result.errorCategory) when !result.ok().
 */
CompileResult compile(const CompileRequest &request,
                      const topology::CouplingGraph &graph,
                      const calibration::Snapshot &snapshot,
                      const CompileContext &context = {});

/**
 * compile() on a caller-owned circuit: request.circuit is ignored,
 * `logical` is compiled instead. The zero-copy form the in-process
 * adapters (BatchCompiler, vaqc) use.
 */
CompileResult compileCircuit(const circuit::Circuit &logical,
                             const CompileRequest &request,
                             const topology::CouplingGraph &graph,
                             const calibration::Snapshot &snapshot,
                             const CompileContext &context = {});

/**
 * The policy-degradation ladder for a primary policy name:
 * vqa* -> {vqm, baseline}, vqm* -> {baseline}, baseline -> {},
 * anything else -> {baseline}.
 */
std::vector<std::string>
fallbackLadder(const std::string &policy_name);

/** Instantiate the ladder's mappers, capped at maxRetries steps. */
std::vector<Mapper>
buildFallbackMappers(const std::string &policy_name, int maxRetries);

/// @name Deterministic JSON (de)serialization
///
/// The daemon wire format, the vaqc JSON output and the golden
/// tests all share these forms. Writing is byte-stable (insertion
/// order + shortest-round-trip numbers); parsing tolerates unknown
/// fields and reports type/missing errors with the full field path.
/// Limits: PolicySpec::seed round-trips exactly up to 2^53; the
/// lint rule-parameter thresholds are in-process knobs and do not
/// serialize.
/// @{

json::Value toJson(const PolicySpec &spec);
PolicySpec policySpecFromJson(const json::Cursor &cursor);

json::Value toJson(const CompileRequest &request);
CompileRequest compileRequestFromJson(const json::Cursor &cursor);

json::Value toJson(const CompileResult &result);
CompileResult compileResultFromJson(const json::Cursor &cursor);

/// @}

} // namespace vaq::core

#endif // VAQ_CORE_COMPILE_REQUEST_HPP

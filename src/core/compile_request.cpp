#include "core/compile_request.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/cancellation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"

namespace vaq::core
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Degraded:
        return "degraded";
    case JobStatus::Failed:
        return "failed";
    case JobStatus::TimedOut:
        return "timed-out";
    }
    return "unknown";
}

JobStatus
jobStatusFromName(const std::string &name)
{
    if (name == "ok")
        return JobStatus::Ok;
    if (name == "degraded")
        return JobStatus::Degraded;
    if (name == "failed")
        return JobStatus::Failed;
    if (name == "timed-out")
        return JobStatus::TimedOut;
    throw VaqError("unknown job status '" + name +
                   "' (ok | degraded | failed | timed-out)");
}

const char *
calibrationHandlingName(CalibrationHandling handling)
{
    switch (handling) {
    case CalibrationHandling::Trust:
        return "trust";
    case CalibrationHandling::Validate:
        return "validate";
    case CalibrationHandling::Sanitize:
        return "sanitize";
    }
    return "unknown";
}

CalibrationHandling
calibrationHandlingFromName(const std::string &name)
{
    if (name == "trust")
        return CalibrationHandling::Trust;
    if (name == "validate")
        return CalibrationHandling::Validate;
    if (name == "sanitize")
        return CalibrationHandling::Sanitize;
    throw VaqError("unknown calibration handling '" + name +
                   "' (trust | validate | sanitize)");
}

std::vector<std::string>
fallbackLadder(const std::string &policy_name)
{
    // Each step drops the most expensive variability-aware
    // ingredient first: vqa+vqm -> vqm (keep reliability routing,
    // drop strongest-subgraph allocation) -> baseline (locality +
    // fewest SWAPs, the policy that cannot fail for policy reasons).
    if (policy_name.rfind("vqa", 0) == 0)
        return {"vqm", "baseline"};
    if (policy_name.rfind("vqm", 0) == 0)
        return {"baseline"};
    if (policy_name == "baseline")
        return {};
    return {"baseline"};
}

std::vector<Mapper>
buildFallbackMappers(const std::string &policy_name, int maxRetries)
{
    std::vector<Mapper> mappers;
    if (maxRetries <= 0)
        return mappers;
    const std::vector<std::string> ladder =
        fallbackLadder(policy_name);
    const std::size_t steps = std::min(
        ladder.size(), static_cast<std::size_t>(maxRetries));
    mappers.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        PolicySpec spec;
        spec.name = ladder[i];
        mappers.push_back(makeMapper(spec));
    }
    return mappers;
}

namespace
{

/** Failure classes worth walking the fallback ladder for. Usage and
 *  calibration errors are deterministic: the same input fails the
 *  same way under every policy, so retrying just burns time. */
bool
retryable(ErrorCategory category)
{
    return category == ErrorCategory::Routing ||
           category == ErrorCategory::Compile ||
           category == ErrorCategory::Timeout ||
           category == ErrorCategory::Internal;
}

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

CompileResult
compileCircuit(const circuit::Circuit &logical,
               const CompileRequest &request,
               const topology::CouplingGraph &graph,
               const calibration::Snapshot &snapshot,
               const CompileContext &context)
{
    const auto start = std::chrono::steady_clock::now();
    const bool telemetry =
        request.options.telemetryEnabled && obs::enabled();

    // Resolve the shared pieces the caller did not inject. Owned
    // instances live on this frame; `context` pointers win so a
    // batch pays for them once.
    std::optional<Mapper> ownedMapper;
    if (!context.mapper)
        ownedMapper.emplace(makeMapper(request.policy));
    const Mapper &mapper =
        context.mapper ? *context.mapper : *ownedMapper;

    // The snapshot's context carries its verdict and the tables the
    // attempts map onto. Without an injected one, inspect here; a
    // compile that opts out of sharing copies the injected verdict
    // into a private context.
    std::shared_ptr<const CalibrationContext> owned;
    if (!context.calibration) {
        owned = inspectCalibration(graph, snapshot, request.calibration,
                                   telemetry);
    } else {
        require(context.calibration->graph().topologyHash() ==
                        graph.topologyHash() &&
                    context.calibration->snapshot().contentHash() ==
                        snapshot.contentHash(),
                "calibration context was built from another machine "
                "or snapshot");
        if (!request.options.cacheEnabled) {
            owned = std::make_shared<const CalibrationContext>(
                graph, snapshot, context.calibration->health());
        }
    }
    const CalibrationContext &calibration =
        owned ? *owned : *context.calibration;
    const SnapshotHealth &health = calibration.health();

    CompileResult result;

    if (health.kind == SnapshotHealth::Kind::Rejected) {
        result.status = JobStatus::Failed;
        result.errorCategory = ErrorCategory::Calibration;
        result.error = health.note;
        result.attempts = 0;
        result.compileMs = elapsedMs(start);
        return result;
    }

    // Scoring and lint read the quarantined copy of a Degraded
    // snapshot, whose dead entries are pinned to worst-case values.
    const calibration::Snapshot &effective =
        health.kind == SnapshotHealth::Kind::Degraded
            ? health.sanitized->snapshot
            : snapshot;

    const auto scoreAttempt = [&](const MappedCircuit &mapped) {
        if (!request.scoreResult)
            return 0.0;
        const sim::NoiseModel model(graph, effective,
                                    sim::CoherenceMode::PerOp);
        return sim::analyticPst(mapped.physical, model);
    };

    std::optional<analysis::Linter> ownedLinter;
    const analysis::Linter *linter = context.linter;
    if (!linter && request.lint) {
        ownedLinter.emplace(request.lintOptions);
        linter = &*ownedLinter;
    }

    if (linter) {
        // Pre-compile pass on the logical circuit. Usage findings
        // are deterministic rejections (the same circuit fails on
        // this machine under every policy), so they fail the job
        // before any compile attempt — same taxonomy bucket the
        // mapper itself would use.
        analysis::LintReport pre =
            linter->lint(logical, &graph, &effective);
        result.lintErrors = pre.errorCount();
        result.lintWarnings = pre.warningCount();
        const auto fatal = std::find_if(
            pre.diagnostics.begin(), pre.diagnostics.end(),
            [](const analysis::Diagnostic &d) {
                return d.severity == analysis::Severity::Error &&
                       d.category == analysis::RuleCategory::Usage;
            });
        const bool isFatal = fatal != pre.diagnostics.end();
        if (isFatal) {
            result.status = JobStatus::Failed;
            result.errorCategory = ErrorCategory::Usage;
            result.error =
                "[" + fatal->ruleId + "] " + fatal->message;
            result.attempts = 0;
        }
        result.diagnostics = std::move(pre.diagnostics);
        if (isFatal) {
            result.compileMs = elapsedMs(start);
            return result;
        }
    }

    // Artifact-cache lookup: a stored mapping for this exact
    // (circuit, snapshot, machine, policy) key, or one the store
    // certifies under the snapshot change, stands in for the
    // attempt ladder; post-lint runs on it as on a fresh mapping.
    // Only clean snapshots are eligible: a quarantined machine
    // compiles against a synthesized cleaned snapshot whose content
    // the key does not describe.
    std::optional<CompileResult> hit;
    if (context.artifactCache &&
        health.kind == SnapshotHealth::Kind::Clean) {
        hit = context.artifactCache->lookup(logical, snapshot);
        if (telemetry) {
            obs::count(hit ? "store.hits" : "store.misses");
            if (hit && hit->viaDelta)
                obs::count("store.delta_reuse");
            if (hit && hit->boundReuse)
                obs::count("store.bound_serves");
        }
    }

    if (hit) {
        result.mapped = std::move(hit->mapped);
        // Prefer the PST recorded at store time; an artifact stored
        // by a non-scoring batch carries 0 and is re-scored
        // (deterministic: the analytic model needs no sampling).
        if (request.scoreResult)
            result.analyticPst = hit->analyticPst != 0.0
                                     ? hit->analyticPst
                                     : scoreAttempt(result.mapped);
        result.policyUsed = std::move(hit->policyUsed);
        result.attempts = 0;
        result.fromStore = true;
        result.viaDelta = hit->viaDelta;
        result.boundReuse = hit->boundReuse;
        result.stalenessBound = hit->stalenessBound;
    } else {
        std::vector<Mapper> ownedFallbacks;
        const std::vector<Mapper> *fallbacks = context.fallbacks;
        if (!fallbacks) {
            ownedFallbacks = buildFallbackMappers(mapper.name(),
                                                  request.maxRetries);
            fallbacks = &ownedFallbacks;
        }

        const std::size_t totalAttempts = 1 + fallbacks->size();
        for (std::size_t attempt = 0; attempt < totalAttempts;
             ++attempt) {
            const Mapper &attemptMapper =
                attempt == 0 ? mapper : (*fallbacks)[attempt - 1];
            if (telemetry && attempt > 0)
                obs::count("batch.retries");
            try {
                // Install a deadline scope only when a deadline is
                // actually requested — a request without one must
                // not mask an ambient CancellationScope the caller
                // set up (vaqc's single compile runs under one). The
                // budget is per job, not per attempt: whatever a
                // failed attempt burned is gone, so a retry after
                // the deadline expires cancels at its first
                // checkpoint instead of succeeding late as a
                // deceptively healthy-looking Degraded result.
                std::optional<CancellationToken> token;
                std::optional<CancellationScope> deadline;
                if (request.deadlineMs > 0.0) {
                    // withDeadline requires a positive budget; an
                    // exhausted one becomes a token that expires at
                    // the first checkpoint.
                    const double remainingMs =
                        request.deadlineMs - elapsedMs(start);
                    token.emplace(CancellationToken::withDeadline(
                        std::max(remainingMs, 1e-6)));
                    deadline.emplace(*token);
                }
                // One attempt maps onto the context's view: the
                // full machine, or the healthy region of a
                // quarantined snapshot.
                result.mapped = attemptMapper.map(logical, calibration,
                                                  request.options);
                result.analyticPst = scoreAttempt(result.mapped);
                result.attempts = static_cast<int>(attempt) + 1;
                result.policyUsed = attemptMapper.name();
                if (health.kind == SnapshotHealth::Kind::Degraded ||
                    attempt > 0) {
                    result.status = JobStatus::Degraded;
                    std::string note;
                    if (attempt > 0)
                        note = "fell back to policy '" +
                               attemptMapper.name() + "'";
                    if (health.kind ==
                        SnapshotHealth::Kind::Degraded) {
                        if (!note.empty())
                            note += "; ";
                        note += health.note;
                    }
                    result.note = std::move(note);
                } else {
                    result.status = JobStatus::Ok;
                }
                result.error.clear();
                break;
            } catch (const std::exception &e) {
                const ErrorCategory category = categorize(e);
                result.status = category == ErrorCategory::Timeout
                                    ? JobStatus::TimedOut
                                    : JobStatus::Failed;
                result.errorCategory = category;
                result.error = e.what();
                result.attempts = static_cast<int>(attempt) + 1;
                if (!retryable(category))
                    break;
            }
        }
    }

    if (linter && result.ok()) {
        // Post-compile pass over the routed circuit: SWAP hygiene,
        // idle exposure, and the static reliability budget on what
        // will actually execute. Advisory only — the job already
        // compiled.
        const analysis::LintReport post = linter->lintPhysical(
            result.mapped.physical, graph, &effective);
        result.mappedLintErrors = post.errorCount();
        result.mappedLintWarnings = post.warningCount();
    }

    result.compileMs = elapsedMs(start);
    return result;
}

CompileResult
compile(const CompileRequest &request,
        const topology::CouplingGraph &graph,
        const calibration::Snapshot &snapshot,
        const CompileContext &context)
{
    return compileCircuit(request.circuit, request, graph, snapshot,
                          context);
}

} // namespace vaq::core

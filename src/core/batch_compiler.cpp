#include "core/batch_compiler.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vaq::core
{

BatchCompiler::BatchCompiler(const Mapper &mapper,
                             const topology::CouplingGraph &graph,
                             BatchOptions options)
    : _mapper(mapper),
      _graph(graph),
      _options(options),
      _pool(options.compile.threads)
{
}

namespace
{

/** Every circuit on every snapshot, snapshot-major. */
std::vector<BatchJob>
crossProduct(std::size_t circuits, std::size_t snapshots)
{
    std::vector<BatchJob> jobs;
    jobs.reserve(circuits * snapshots);
    for (std::size_t s = 0; s < snapshots; ++s) {
        for (std::size_t c = 0; c < circuits; ++c)
            jobs.push_back(BatchJob{c, s});
    }
    return jobs;
}

} // namespace

std::shared_ptr<const CalibrationContext>
inspectForBatch(const topology::CouplingGraph &graph,
                const calibration::Snapshot &snapshot,
                const BatchOptions &options)
{
    return inspectCalibration(
        graph, snapshot,
        options.sanitizeCalibration ? CalibrationHandling::Sanitize
                                    : CalibrationHandling::Validate,
        options.compile.telemetryEnabled && obs::enabled());
}

std::vector<BatchResult>
BatchCompiler::compile(
    const std::vector<circuit::Circuit> &circuits,
    const std::vector<calibration::Snapshot> &snapshots,
    const std::vector<BatchJob> &jobs)
{
    // Inspect each distinct snapshot once, serially, before the
    // burst: a snapshot that fails validate() is either rescued by
    // the quarantine (jobs compile into the healthy region, marked
    // Degraded) or rejected (jobs fail with the report attached).
    // Each context is shared by every job against its snapshot and
    // dropped when the batch returns; the overload below checks the
    // job list.
    std::vector<std::shared_ptr<const CalibrationContext>> calibrations(
        snapshots.size());
    for (const BatchJob &job : jobs) {
        if (job.snapshot < snapshots.size() &&
            !calibrations[job.snapshot]) {
            calibrations[job.snapshot] =
                inspectForBatch(_graph, snapshots[job.snapshot], _options);
        }
    }
    return compile(circuits, calibrations, jobs);
}

std::vector<BatchResult>
BatchCompiler::compile(
    const std::vector<circuit::Circuit> &circuits,
    const std::vector<std::shared_ptr<const CalibrationContext>>
        &calibrations,
    const std::vector<BatchJob> &jobs)
{
    for (const BatchJob &job : jobs) {
        require(job.circuit < circuits.size(),
                "batch job references a missing circuit");
        require(job.snapshot < calibrations.size() &&
                    calibrations[job.snapshot] != nullptr,
                "batch job references a missing snapshot");
    }

    const bool telemetry =
        _options.compile.telemetryEnabled && obs::enabled();
    obs::Span batchSpan("batch.compile", telemetry);
    if (telemetry)
        obs::gaugeSet("batch.queue.depth",
                      static_cast<double>(jobs.size()));

    // One shared linter for every job (rule objects are stateless
    // across run() calls); constructing it here surfaces unknown
    // rule names as a usage error before any work is queued.
    std::optional<analysis::Linter> linter;
    if (_options.lint)
        linter.emplace(_options.lintOptions);

    // Build the fallback mappers once, outside the parallel section:
    // makeMapper is cheap but not worth repeating per job, and doing
    // it here keeps the workers allocation-light.
    const std::vector<Mapper> fallbacks =
        buildFallbackMappers(_mapper.name(), _options.maxRetries);

    // The per-job knobs, expressed once as a CompileRequest
    // template; CompileContext injects the batch-shared pieces so
    // every job reuses them instead of rebuilding per call.
    CompileRequest proto;
    proto.options = _options.compile;
    proto.lint = _options.lint;
    proto.lintOptions = _options.lintOptions;
    proto.deadlineMs = _options.jobDeadlineMs;
    proto.maxRetries = _options.maxRetries;
    proto.scoreResult = _options.scoreResults;

    // Per-job result slots: workers never touch shared state, so
    // the output is a pure function of the job list — including the
    // failure/retry path, which is why results stay bit-identical
    // across thread counts even with faulty jobs in the mix.
    std::vector<std::optional<BatchResult>> slots(jobs.size());
    std::atomic<std::size_t> remaining{jobs.size()};

    const auto finish = [&](std::size_t i, BatchResult result) {
        if (telemetry) {
            switch (result.status) {
            case JobStatus::Ok:
                obs::count("batch.jobs.completed");
                break;
            case JobStatus::Degraded:
                obs::count("batch.jobs.completed");
                obs::count("batch.jobs.degraded");
                break;
            case JobStatus::Failed:
                obs::count("batch.jobs.failed");
                break;
            case JobStatus::TimedOut:
                obs::count("batch.jobs.timeout");
                break;
            }
            const std::size_t left =
                remaining.fetch_sub(1, std::memory_order_relaxed) -
                1;
            obs::gaugeSet("batch.queue.depth",
                          static_cast<double>(left));
        }
        slots[i].emplace(std::move(result));
    };

    const std::vector<std::exception_ptr> errors =
        _pool.parallelForAll(jobs.size(), [&](std::size_t i) {
            obs::ScopedTimer jobTimer("batch.job.seconds",
                                      telemetry);
            const BatchJob &job = jobs[i];
            CompileContext context;
            context.mapper = &_mapper;
            context.fallbacks = &fallbacks;
            context.linter = linter ? &*linter : nullptr;
            context.calibration = calibrations[job.snapshot].get();
            context.artifactCache = _options.artifactCache;
            finish(i, BatchResult(
                          job.circuit, job.snapshot,
                          compileCircuit(circuits[job.circuit], proto,
                                         _graph,
                                         context.calibration->snapshot(),
                                         context)));
        });

    // Deferred artifact-store writes: results are offered to the
    // store only now, after all workers have drained (the hook keeps
    // the fresh Ok ones). Recording mid-batch would let a later job
    // hit an artifact an earlier job just stored, making results
    // depend on scheduling order — this keeps a batch a pure
    // function of (jobs, store-state-at-entry) at any thread count.
    if (_options.artifactCache) {
        for (const std::optional<BatchResult> &slot : slots) {
            if (slot.has_value()) {
                _options.artifactCache->record(
                    circuits[slot->circuit],
                    calibrations[slot->snapshot]->snapshot(), *slot);
            }
        }
    }

    // Backstop for exceptions that escaped the per-attempt handler
    // (non-std exceptions, failures in the bookkeeping itself):
    // convert them into Failed results instead of losing the slot.
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].has_value() || !errors[i])
            continue;
        CompileResult result;
        result.status = JobStatus::Failed;
        try {
            std::rethrow_exception(errors[i]);
        } catch (const std::exception &e) {
            result.errorCategory = categorize(e);
            result.error = e.what();
        } catch (...) {
            result.errorCategory = ErrorCategory::Internal;
            result.error = "unknown exception";
        }
        slots[i].emplace(jobs[i].circuit, jobs[i].snapshot,
                         std::move(result));
    }

    std::vector<BatchResult> results;
    results.reserve(jobs.size());
    for (std::optional<BatchResult> &slot : slots) {
        VAQ_ASSERT(slot.has_value(), "batch job left no result");
        results.push_back(std::move(*slot));
    }
    return results;
}

std::vector<BatchResult>
BatchCompiler::compileAll(
    const std::vector<circuit::Circuit> &circuits,
    const std::vector<calibration::Snapshot> &snapshots)
{
    return compile(circuits, snapshots,
                   crossProduct(circuits.size(), snapshots.size()));
}

std::vector<BatchResult>
BatchCompiler::compileAll(
    const std::vector<circuit::Circuit> &circuits,
    const std::vector<std::shared_ptr<const CalibrationContext>>
        &calibrations)
{
    return compile(circuits, calibrations,
                   crossProduct(circuits.size(), calibrations.size()));
}

} // namespace vaq::core

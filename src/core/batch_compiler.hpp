/**
 * @file
 * Batch compilation: map many (circuit, snapshot) pairs through one
 * mapper concurrently, with per-job fault isolation.
 *
 * The paper's setting recompiles every queued program whenever a
 * new calibration cycle is published (Section 3.3): a compile burst
 * of many circuits against few snapshots. Each job is independent,
 * and everything snapshot-derived — the quarantine verdict, the
 * reliability-path matrix, the movement-plan tables — comes from one
 * CalibrationContext per distinct snapshot (core/compile_cache.hpp),
 * so a burst pays for each table once instead of once per circuit.
 * A caller that already owns the contexts (a vaqd epoch, a fleet
 * backend, a series replay) hands them in; otherwise the batch
 * inspects each distinct snapshot itself. Jobs run on a reusable
 * ThreadPool and write results into per-job slots, so the output is
 * identical for any thread count (the differential tests check
 * 1/4/8).
 *
 * Failure containment (the robustness layer):
 *
 *  - A job that throws no longer poisons the batch: its BatchResult
 *    records status/category/message and every other job completes
 *    normally (ThreadPool::parallelForAll).
 *  - Transient failure classes (routing, compile, timeout, internal)
 *    are retried down a policy-degradation ladder derived from the
 *    primary policy (vqa+vqm -> vqm -> baseline), bounded by
 *    BatchOptions::maxRetries. Deterministic classes (usage,
 *    calibration) fail immediately.
 *  - Each attempt runs under an optional cooperative deadline
 *    (BatchOptions::jobDeadlineMs, see common/cancellation.hpp), so
 *    one pathological job cannot stall the batch.
 *  - Snapshots that fail Snapshot::validate() are routed through the
 *    calibration quarantine (calibration/sanitize.hpp): jobs against
 *    a partially-dead machine compile into the healthy region and
 *    come back Degraded instead of Failed; jobs against an unusable
 *    snapshot fail with the quarantine report as the reason.
 *
 * Each job runs core::compileCircuit (core/compile_request.hpp), so a
 * batch job and a single compile share one pipeline. A caller that
 * wants to stop on the first failure reads the results in job order
 * (status, errorCategory); maxRetries = 0 and sanitizeCalibration =
 * false turn off the ladder and the quarantine.
 */
#ifndef VAQ_CORE_BATCH_COMPILER_HPP
#define VAQ_CORE_BATCH_COMPILER_HPP

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/linter.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/compile_request.hpp"
#include "core/mapped_circuit.hpp"
#include "core/mapper.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/** One compile order: circuits[circuit] on snapshots[snapshot]. */
struct BatchJob
{
    std::size_t circuit = 0;
    std::size_t snapshot = 0;
};

/** Batch-compiler knobs. */
struct BatchOptions
{
    /** Per-compile options applied to every job; compile.threads
     *  sizes the worker pool (0 = one per hardware thread). */
    CompileOptions compile;
    /** Fill BatchResult::analyticPst (skip to save scoring time). */
    bool scoreResults = true;
    /** Fallback attempts after the primary policy (ladder length is
     *  also capped by how far the policy can degrade). */
    int maxRetries = 2;
    /** Per-attempt cooperative deadline in milliseconds (0 = none).
     *  An expired attempt throws TimeoutError and, if the ladder is
     *  exhausted, the job reports JobStatus::TimedOut. */
    double jobDeadlineMs = 0.0;
    /** Route invalid snapshots through the calibration quarantine
     *  instead of failing every job that references them. Applies
     *  only to snapshots the batch inspects itself: a handed-in
     *  CalibrationContext already carries its verdict. */
    bool sanitizeCalibration = true;
    /** Run the static analysis rules around each job: pre-compile on
     *  the logical circuit (error-severity Usage findings fail the
     *  job before any compile attempt) and post-compile on the
     *  mapped output (counted, never fatal). */
    bool lint = false;
    /** Rule selection and thresholds for the lint passes. */
    analysis::LintOptions lintOptions;
    /**
     * Optional persistent artifact cache (not owned; must outlive
     * the compiler). When set, each job on a clean snapshot
     * consults the cache after pre-lint — a hit skips the mapping
     * attempts (BatchResult::fromStore, attempts == 0), and both
     * lint passes still run against the job's snapshot — and every
     * result is offered to the cache after the batch completes (it
     * keeps the fresh Ok ones).
     */
    ArtifactCacheHook *artifactCache = nullptr;
};

/**
 * One compiled job: the unified CompileResult plus the job indices
 * that tie it back to the batch's circuit/snapshot lists.
 */
struct BatchResult : CompileResult
{
    std::size_t circuit;
    std::size_t snapshot;

    BatchResult(std::size_t circuit_index,
                std::size_t snapshot_index, CompileResult result)
        : CompileResult(std::move(result)),
          circuit(circuit_index),
          snapshot(snapshot_index)
    {}
};

/** Inspect `snapshot` the way a batch under `options` does
 *  (sanitizeCalibration, compile.telemetryEnabled). */
std::shared_ptr<const CalibrationContext>
inspectForBatch(const topology::CouplingGraph &graph,
                const calibration::Snapshot &snapshot,
                const BatchOptions &options);

/** Concurrent (circuit, snapshot) compiler over one mapper. */
class BatchCompiler
{
  public:
    /**
     * @param mapper Policy portfolio to compile with; must outlive
     *        the compiler, and Mapper::map must stay const-safe
     *        (it is: each call builds its own routing state).
     * @param graph Target machine (must outlive the compiler).
     */
    BatchCompiler(const Mapper &mapper,
                  const topology::CouplingGraph &graph,
                  BatchOptions options = {});
    /** The compiler stores references; temporaries would dangle
     *  before the first compile() call. */
    BatchCompiler(Mapper &&, const topology::CouplingGraph &,
                  BatchOptions = {}) = delete;
    BatchCompiler(const Mapper &, topology::CouplingGraph &&,
                  BatchOptions = {}) = delete;

    /** Worker threads serving this compiler. */
    std::size_t threadCount() const { return _pool.threadCount(); }

    /**
     * Compile every job and return results in job order. Each
     * distinct snapshot a job references is inspected once
     * (BatchOptions::sanitizeCalibration) and its context built
     * before the burst, so workers start from warm tables. Faults
     * are contained per job (see the file comment); only usage
     * errors in the job list itself throw.
     */
    std::vector<BatchResult>
    compile(const std::vector<circuit::Circuit> &circuits,
            const std::vector<calibration::Snapshot> &snapshots,
            const std::vector<BatchJob> &jobs);

    /**
     * compile() against contexts the caller already built: a job's
     * `snapshot` index selects calibrations[snapshot], which must
     * be non-null and built for this compiler's machine. Nothing is
     * inspected again.
     */
    std::vector<BatchResult>
    compile(const std::vector<circuit::Circuit> &circuits,
            const std::vector<std::shared_ptr<const CalibrationContext>>
                &calibrations,
            const std::vector<BatchJob> &jobs);

    /**
     * Compile the full cross product, snapshot-major: all circuits
     * on snapshots[0], then on snapshots[1], ...
     */
    std::vector<BatchResult>
    compileAll(const std::vector<circuit::Circuit> &circuits,
               const std::vector<calibration::Snapshot> &snapshots);

    /** compileAll() against caller-built contexts. */
    std::vector<BatchResult>
    compileAll(const std::vector<circuit::Circuit> &circuits,
               const std::vector<std::shared_ptr<const CalibrationContext>>
                   &calibrations);

  private:
    const Mapper &_mapper;
    const topology::CouplingGraph &_graph;
    BatchOptions _options;
    ThreadPool _pool;
};

} // namespace vaq::core

#endif // VAQ_CORE_BATCH_COMPILER_HPP

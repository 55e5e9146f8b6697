/**
 * @file
 * The NISQ iterative computing model (paper Fig. 4): run the
 * program many times on the noisy machine, log every measured
 * outcome, and infer the answer from the log — "as long as the
 * correct results appear with non-negligible probability, we can
 * infer the correct results by analyzing the output log"
 * (Section 2.3).
 *
 * The runner owns the full job pipeline:
 *   compile (with the caller's policy and today's calibration)
 *   -> execute N trials on the machine
 *   -> translate physical outcomes back to program outcomes
 *   -> majority-infer the answer and report confidence.
 *
 * Variation-aware compilation raises PST, which shows up here as
 * fewer trials needed for a confident answer.
 */
#ifndef VAQ_RUNTIME_ITERATIVE_HPP
#define VAQ_RUNTIME_ITERATIVE_HPP

#include <cstdint>
#include <map>
#include <vector>

#include <string>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/batch_compiler.hpp"
#include "core/mapper.hpp"
#include "sim/characterize.hpp"

namespace vaq::runtime
{

/** The output log of one job (Fig. 4's "Output Log"). */
struct TrialLog
{
    /** Logical outcome (bit i = program qubit i) -> occurrences. */
    std::map<std::uint64_t, std::size_t> outcomes;
    /**
     * Trials actually executed — always equal to the sum of
     * `outcomes` counts (asserted when the runner builds the log).
     * A machine running adaptive early stopping (e.g. a simulator
     * honoring --target-stderr) may legitimately stop short of the
     * request, so this can be less than `requestedTrials`; it can
     * never exceed it.
     */
    std::size_t trials = 0;
    /** Trials the caller asked the machine for. */
    std::size_t requestedTrials = 0;

    /**
     * Most frequent outcome. Ties are broken toward the
     * numerically lowest outcome: the scan walks `outcomes` in
     * std::map (ascending key) order and replaces the best only on
     * a strictly greater count, so inference is deterministic for
     * any insertion order. Throws VaqError when the log is empty.
     */
    std::uint64_t inferredOutcome() const;

    /**
     * Fraction of trials landing on the inferred outcome. Throws
     * VaqError when the log is empty — including the malformed
     * "trials > 0 but no recorded outcomes" state, which is
     * rejected here with its own message rather than surfacing as
     * inferredOutcome()'s generic empty-log error.
     */
    double confidence() const;

    /** Fraction of trials landing on `outcome`. */
    double frequencyOf(std::uint64_t outcome) const;
};

/** Everything a job run produces. */
struct JobResult
{
    core::MappedCircuit mapped;
    TrialLog log;
    /** Compile outcome for this job; Failed/TimedOut jobs were not
     *  executed and carry an empty log. */
    core::JobStatus status = core::JobStatus::Ok;
    /** Degrade reason or failure message; empty when status is Ok. */
    std::string note;

    JobResult(int num_prog, int num_phys)
        : mapped(num_prog, num_phys)
    {}

    /** True when the job compiled and ran (Ok or Degraded). */
    bool executed() const
    {
        return status == core::JobStatus::Ok ||
               status == core::JobStatus::Degraded;
    }
};

/** One calibration cycle of a series replay (runBatchSeries). */
struct SeriesCycleResult
{
    std::size_t cycle = 0;
    /** The cycle's snapshot was unusable; no jobs ran. */
    bool skipped = false;
    /** Why the cycle was skipped (quarantine summary). */
    std::string skipReason;
    /** Per-job results, queue order; empty when skipped. */
    std::vector<JobResult> jobs;
};

/** A machine accepting (circuit, shots) jobs. */
using Machine = std::function<sim::ShotCounts(
    const circuit::Circuit &, std::size_t shots)>;

/**
 * Runs compile-execute-infer jobs against one machine.
 * The referenced graph must outlive the runner.
 */
class IterativeRunner
{
  public:
    /**
     * @param graph The machine's topology.
     * @param machine Executes physical circuits (e.g. a
     *        TrajectorySimulator, or eventually real hardware).
     */
    IterativeRunner(const topology::CouplingGraph &graph,
                    Machine machine);

    /**
     * Compile `logical` with `mapper` against `calibration`, run
     * it for `trials` trials, and return the mapped circuit plus
     * the translated output log.
     */
    JobResult run(const circuit::Circuit &logical,
                  const core::Mapper &mapper,
                  const calibration::Snapshot &calibration,
                  std::size_t trials) const;

    /**
     * Run a whole queue of programs against one calibration cycle —
     * the recompile-everything burst of Section 3.3. Compilation
     * fans out across `options.compile.threads` workers through
     * the batch compiler (core/batch_compiler.hpp), sharing one
     * reliability matrix and plan table per snapshot; execution
     * then proceeds serially in queue order, because the machine
     * callback is not required to be thread-safe. Results are in
     * queue order.
     *
     * Faults are contained per job: a job whose compile failed (or
     * timed out) comes back with its status and an empty log, and
     * the other jobs execute normally. `options` carries the
     * failure-containment knobs (retries, deadlines, quarantine
     * thresholds) and the per-compile CompileOptions.
     */
    std::vector<JobResult>
    runBatch(const std::vector<circuit::Circuit> &logicals,
             const core::Mapper &mapper,
             const calibration::Snapshot &calibration,
             std::size_t trials,
             const core::BatchOptions &options = {}) const;

    /**
     * Replay the queue against every cycle of a calibration series
     * (the paper's 52-day archive). A cycle whose snapshot is
     * invalid and cannot be rescued by the quarantine
     * (calibration/sanitize.hpp) is skipped with a reason instead
     * of aborting the replay; usable-but-dirty cycles run with
     * degraded jobs. Results are in cycle order.
     */
    std::vector<SeriesCycleResult>
    runBatchSeries(const std::vector<circuit::Circuit> &logicals,
                   const core::Mapper &mapper,
                   const calibration::CalibrationSeries &series,
                   std::size_t trials,
                   const core::BatchOptions &options = {}) const;

  private:
    const topology::CouplingGraph &_graph;
    Machine _machine;
};

} // namespace vaq::runtime

#endif // VAQ_RUNTIME_ITERATIVE_HPP

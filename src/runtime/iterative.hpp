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
#include <functional>
#include <map>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
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

    JobResult(int num_prog, int num_phys)
        : mapped(num_prog, num_phys)
    {}
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
    /** The runner borrows the graph: a temporary would dangle. */
    IterativeRunner(const topology::CouplingGraph &&, Machine) = delete;

    /**
     * Compile `logical` with `mapper` against `calibration`, run
     * it for `trials` trials, and return the mapped circuit plus
     * the translated output log.
     */
    JobResult run(const circuit::Circuit &logical,
                  const core::Mapper &mapper,
                  const calibration::Snapshot &calibration,
                  std::size_t trials) const;

  private:
    const topology::CouplingGraph &_graph;
    Machine _machine;
};

} // namespace vaq::runtime

#endif // VAQ_RUNTIME_ITERATIVE_HPP

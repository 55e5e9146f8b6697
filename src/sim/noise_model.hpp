/**
 * @file
 * Error model mapping calibration data onto circuit operations.
 *
 * Matches the paper's evaluation model (Section 4.4): operations fail
 * as independent Bernoulli events with the calibrated error rate of
 * the qubit/link they use; coherence errors are modeled per operation
 * from T1/T2 and gate durations and are dominated by gate errors
 * (~16x for bv-20 with the default durations, as the paper reports).
 */
#ifndef VAQ_SIM_NOISE_MODEL_HPP
#define VAQ_SIM_NOISE_MODEL_HPP

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::sim
{

/** How decoherence is charged to a trial. */
enum class CoherenceMode
{
    None,  ///< ignore coherence errors entirely
    PerOp, ///< each operation decoheres its operands for its duration
           ///< (default; reproduces the paper's gate-error dominance)
    Idle,  ///< PerOp plus decay during idle gaps between a qubit's
           ///< operations (extension; needs the schedule)
};

/**
 * Immutable view binding a machine topology + calibration snapshot
 * into per-operation error probabilities.
 *
 * The referenced graph and snapshot must outlive the model.
 */
class NoiseModel
{
  public:
    /**
     * @param graph Machine connectivity.
     * @param snapshot Calibration data shaped for `graph`.
     * @param mode Coherence treatment.
     */
    NoiseModel(const topology::CouplingGraph &graph,
               const calibration::Snapshot &snapshot,
               CoherenceMode mode = CoherenceMode::PerOp);

    /** The model borrows both: a temporary would dangle. */
    NoiseModel(const topology::CouplingGraph &&,
               const calibration::Snapshot &,
               CoherenceMode = CoherenceMode::PerOp) = delete;
    NoiseModel(const topology::CouplingGraph &,
               const calibration::Snapshot &&,
               CoherenceMode = CoherenceMode::PerOp) = delete;

    /** Machine the model describes. */
    const topology::CouplingGraph &graph() const { return _graph; }

    /** Calibration behind the model. */
    const calibration::Snapshot &snapshot() const
    {
        return _snapshot;
    }

    /** Coherence mode. */
    CoherenceMode mode() const { return _mode; }

    /**
     * Operational (gate/readout) error probability of one operation.
     * Two-qubit operands must be coupled on the machine (throws
     * VaqError otherwise — an unrouted circuit is a caller bug).
     * SWAPs cost 1-(1-e)^3. Barriers are free.
     */
    double opErrorProb(const circuit::Gate &gate) const;

    /**
     * Coherence error probability charged to the operation:
     * each operand decoheres with 1 - exp(-t_op * (1/T1 + 1/T2))
     * during the gate's duration (0 under CoherenceMode::None).
     */
    double coherenceErrorProb(const circuit::Gate &gate) const;

    /**
     * Additional coherence error for a qubit idling for `idle_ns`
     * (used in CoherenceMode::Idle; 0 otherwise).
     */
    double idleErrorProb(int qubit, double idle_ns) const;

    /**
     * Total per-operation failure probability:
     * 1 - (1-op)(1-coherence).
     */
    double totalErrorProb(const circuit::Gate &gate) const;

    /** Duration of the operation in nanoseconds. */
    double opDurationNs(const circuit::Gate &gate) const;

  private:
    double decayProb(int qubit, double duration_ns) const;

    const topology::CouplingGraph &_graph;
    const calibration::Snapshot &_snapshot;
    CoherenceMode _mode;
};

} // namespace vaq::sim

#endif // VAQ_SIM_NOISE_MODEL_HPP

/**
 * @file
 * Machine characterization data: the per-qubit and per-link error
 * rates that IBM publishes after each calibration cycle (Section 3 of
 * the paper). All variation-aware policy decisions are driven by a
 * Snapshot; a CalibrationSeries holds one Snapshot per cycle across
 * the 52-day study window.
 */
#ifndef VAQ_CALIBRATION_SNAPSHOT_HPP
#define VAQ_CALIBRATION_SNAPSHOT_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/gate.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::calibration
{

/** Calibration record for one physical qubit. */
struct QubitCalibration
{
    double t1Us = 80.0;         ///< T1 relaxation time, microseconds
    double t2Us = 42.0;         ///< T2 dephasing time, microseconds
    double error1q = 0.003;     ///< single-qubit gate error prob
    double readoutError = 0.03; ///< measurement misread prob
};

/** Nominal gate durations (nanoseconds) for the coherence model. */
struct GateDurations
{
    double oneQubitNs = 60.0;
    double twoQubitNs = 200.0;
    double measureNs = 300.0;

    bool operator==(const GateDurations &) const = default;
};

/**
 * Duration of one operation in nanoseconds: the single definition
 * behind the noise model's coherence charge, the sensitivity
 * profile's T1 exposure and the dataflow schedule. A SWAP is three
 * CNOTs (Fig. 2d of the paper); barriers take no time.
 */
inline double
gateDurationNs(const circuit::Gate &gate, const GateDurations &d)
{
    switch (gate.kind) {
      case circuit::GateKind::BARRIER:
        return 0.0;
      case circuit::GateKind::MEASURE:
        return d.measureNs;
      case circuit::GateKind::CX:
      case circuit::GateKind::CZ:
        return d.twoQubitNs;
      case circuit::GateKind::SWAP:
        return 3.0 * d.twoQubitNs;
      default:
        return d.oneQubitNs;
    }
}

/**
 * One calibration cycle: qubit records plus per-link two-qubit error
 * rates, aligned index-for-index with a CouplingGraph's links().
 */
class Snapshot
{
  public:
    /** Zero-initialized snapshot shaped for the given machine. */
    explicit Snapshot(const topology::CouplingGraph &graph);

    /** Number of qubits covered. */
    int numQubits() const
    {
        return static_cast<int>(_qubits.size());
    }

    /** Number of links covered. */
    std::size_t numLinks() const { return _linkError2q.size(); }

    /// @name Per-qubit data
    /// @{
    const QubitCalibration &qubit(int q) const;
    QubitCalibration &qubit(int q);
    /// @}

    /// @name Per-link data (indexed as graph.links())
    /// @{
    double linkError(std::size_t link_idx) const;
    void setLinkError(std::size_t link_idx, double error);
    /** Two-qubit error rate for the link {a, b}. */
    double linkError(const topology::CouplingGraph &graph,
                     topology::PhysQubit a,
                     topology::PhysQubit b) const;
    /** Success probability 1 - error for the link {a, b}. */
    double linkSuccess(const topology::CouplingGraph &graph,
                       topology::PhysQubit a,
                       topology::PhysQubit b) const;
    /**
     * SWAP failure probability on {a, b}: a SWAP decomposes into 3
     * CNOTs (Fig. 2d), so failure = 1 - (1 - e)^3.
     */
    double swapError(const topology::CouplingGraph &graph,
                     topology::PhysQubit a,
                     topology::PhysQubit b) const;
    /// @}

    /** Gate durations used by the coherence model. */
    GateDurations durations;

    /** All two-qubit link errors (copy). */
    std::vector<double> allLinkErrors() const { return _linkError2q; }

    /** All single-qubit gate errors (copy). */
    std::vector<double> allError1q() const;

    /**
     * Error-scaled copy for the Table 2 sensitivity study.
     *
     * Every error population (2q, 1q, readout) is transformed so its
     * mean becomes mean * err_scale while its coefficient of
     * variation becomes CoV * cov_mult:
     * e' = m*err_scale + (e - m)*err_scale*cov_mult, clamped to
     * [1e-5, 0.5].
     *
     * When `scale_coherence` is true (default), T1/T2 improve by the
     * same factor (1 / err_scale): "as technology improves, we can
     * expect the error rates to reduce" (Section 6.6) applies to the
     * whole device, keeping the paper's gate-error dominance. Pass
     * false to scale gate errors only.
     */
    Snapshot scaledErrors(double err_scale, double cov_mult,
                          bool scale_coherence = true) const;

    /** Throws VaqError unless all probabilities are in [0, 1] and
     *  coherence times are positive. */
    void validate() const;

    /**
     * Content hash over every calibration field (bit patterns of
     * the doubles, FNV-1a). Two snapshots hash equal iff their data
     * is bit-identical, so the hash keys caches of anything derived
     * from one calibration cycle (e.g. the reliability-path matrix;
     * see graph/reliability_matrix.hpp).
     */
    std::uint64_t contentHash() const;

  private:
    std::vector<QubitCalibration> _qubits;
    std::vector<double> _linkError2q;
};

/** A time-ordered sequence of calibration snapshots. */
class CalibrationSeries
{
  public:
    /** Append one cycle's snapshot. */
    void add(Snapshot snapshot);

    /** Number of cycles recorded. */
    std::size_t size() const { return _snapshots.size(); }

    /** True when no cycles are recorded. */
    bool empty() const { return _snapshots.empty(); }

    /** Snapshot of cycle i. */
    const Snapshot &at(std::size_t i) const;

    /** All snapshots. */
    const std::vector<Snapshot> &snapshots() const
    {
        return _snapshots;
    }

    /**
     * Element-wise average across all cycles — the "average behavior
     * of the link/qubit based on characterization data across 52
     * days" used by the paper's main evaluations (Section 6.5).
     */
    Snapshot averaged() const;

  private:
    std::vector<Snapshot> _snapshots;
};

} // namespace vaq::calibration

#endif // VAQ_CALIBRATION_SNAPSHOT_HPP

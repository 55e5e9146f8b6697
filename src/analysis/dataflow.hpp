/**
 * @file
 * Static dataflow facts over a circuit: per-qubit def/use chains,
 * liveness intervals, idle (decoherence-exposure) windows, symbolic
 * SWAP-permutation tracking, and backward measurement reachability.
 *
 * Everything here is computed symbolically from the gate list — no
 * state vector, no sampling — so the lint rules (analysis/rule.hpp)
 * run in milliseconds on circuits the Monte-Carlo engine needs
 * seconds to score. The same facts feed the allocation policies:
 * activityByQubit() is the activity analysis VQA ranks program
 * qubits by (Algorithm 2, step 2), and core::InteractionSummary
 * delegates to it instead of keeping a private copy.
 */
#ifndef VAQ_ANALYSIS_DATAFLOW_HPP
#define VAQ_ANALYSIS_DATAFLOW_HPP

#include <cstddef>
#include <vector>

#include "calibration/schedule.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"

namespace vaq::analysis
{

/**
 * Def/use chain of one qubit wire. Barriers touch no chain. A
 * unitary gate both uses and defines the wire; a MEASURE uses the
 * wire and defines the classical bit of the same index.
 */
struct QubitChain
{
    /** Gate indices touching this qubit, program order. */
    std::vector<std::size_t> touches;
    /** Gate indices measuring this qubit, program order. */
    std::vector<std::size_t> measures;
    /** First/last gate touching the qubit, -1 when untouched. */
    long firstTouch = -1;
    long lastTouch = -1;
    /** First measurement of the qubit, -1 when never measured. */
    long firstMeasure = -1;

    /** True when any gate (incl. measure) touches the qubit. */
    bool touched() const { return firstTouch >= 0; }
};

/**
 * One scheduled gap on a live qubit wire: the qubit sits idle,
 * decohering, between the end of `fromGate` and the start of
 * `toGate` (ASAP schedule under the snapshot's gate durations).
 */
struct IdleWindow
{
    circuit::Qubit qubit;
    std::size_t fromGate;
    std::size_t toGate;
    double nanoseconds;
};

/** Symbolic facts about one SWAP gate under permutation tracking. */
struct SwapFact
{
    std::size_t gateIndex;
    /** Both wires carried states no earlier gate ever wrote:
     *  exchanging |0> with |0> is the identity. */
    bool exchangesUntouchedStates = false;
    /** Immediately undoes the previous SWAP on the same pair (no
     *  intervening gate touches either wire). */
    bool cancelsPrevious = false;

    /** A SWAP the tracked permutation proves is removable. */
    bool noOp() const
    {
        return exchangesUntouchedStates || cancelsPrevious;
    }
};

/**
 * One-pass static analysis of a circuit. Construction cost is
 * O(gates * operands + depth); every accessor is O(1) afterwards.
 */
class DataflowAnalysis
{
  public:
    /**
     * Analyze `circuit`. `durations` feeds the idle-window schedule
     * (defaults match calibration::GateDurations defaults).
     */
    explicit DataflowAnalysis(
        const circuit::Circuit &circuit,
        calibration::GateDurations durations = {});
    /** The analysis borrows the circuit: a temporary would dangle. */
    explicit DataflowAnalysis(const circuit::Circuit &&,
                              calibration::GateDurations = {}) = delete;

    /** The analyzed circuit (held by reference; must outlive us). */
    const circuit::Circuit &circuit() const { return _circuit; }

    /** Def/use chain of qubit q. */
    const QubitChain &chain(circuit::Qubit q) const;

    /**
     * liveGate()[i] is true when gate i can influence some
     * measurement outcome: measurements are live, and liveness
     * propagates backwards through shared operands (a two-qubit
     * gate entangles both wires, so either live output wire makes
     * the gate and both input wires live; a SWAP exchanges wire
     * liveness exactly). Barriers are always "live" (scheduling
     * pseudo-ops are never dead code).
     */
    const std::vector<bool> &liveGate() const { return _liveGate; }

    /** Idle windows of touched qubits, by (start time, qubit). */
    const std::vector<IdleWindow> &idleWindows() const
    {
        return _idleWindows;
    }

    /** Per-SWAP permutation facts, program order. */
    const std::vector<SwapFact> &swapFacts() const
    {
        return _swapFacts;
    }

    /**
     * Final wire permutation: wireState()[p] is the index of the
     * initial state now living on wire p after every SWAP (identity
     * when the circuit has no SWAPs).
     */
    const std::vector<circuit::Qubit> &wireState() const
    {
        return _wireState;
    }

    /** ASAP start time of gate i in nanoseconds. */
    double gateStartNs(std::size_t i) const;

    /** ASAP end time of gate i in nanoseconds. */
    double gateEndNs(std::size_t i) const;

    /** Total scheduled duration of the circuit in nanoseconds. */
    double scheduleNs() const { return _schedule.durationNs; }

    /** Nominal duration of gate i under the analysis durations. */
    double gateDurationNs(std::size_t i) const;

  private:
    const circuit::Circuit &_circuit;
    calibration::GateDurations _durations;
    std::vector<QubitChain> _chains;
    std::vector<bool> _liveGate;
    std::vector<IdleWindow> _idleWindows;
    std::vector<SwapFact> _swapFacts;
    std::vector<circuit::Qubit> _wireState;
    calibration::Schedule _schedule;
};

/**
 * Two-qubit activity per program qubit over the first
 * `window_layers` dependence layers (0 = whole program): exactly the
 * activity metric VQA ranks program qubits by. Exposed standalone so
 * core::InteractionSummary and the lint rules share one definition.
 */
std::vector<double> activityByQubit(const circuit::Circuit &circuit,
                                    std::size_t window_layers = 0);

} // namespace vaq::analysis

#endif // VAQ_ANALYSIS_DATAFLOW_HPP

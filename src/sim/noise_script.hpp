/**
 * @file
 * Precompiled per-trial noise schedule shared by the outcome engines.
 *
 * TrajectorySimulator's error model is defined by the order in which
 * its shot loop consumes randomness: per unitary gate an operational
 * Bernoulli (then 1-2 random Paulis), a coherence Bernoulli (then a
 * random Pauli on the first operand), and one crosstalk Bernoulli
 * per machine-neighbour spectator of a two-qubit gate; after the
 * walk, a sample draw and per-measured-qubit readout flips. The
 * Pauli-frame fast path (sim/pauli_frame.hpp) must replay trials
 * from the *same* RNG stream bit-identically, so that draw order is
 * reified here once — as a NoiseScript compiled from (circuit,
 * model, options). The dense engine runs it through the templated
 * samplers below. The frame engine compiles the same schedule into
 * raw-word draws that consume the same words in the same order
 * (tests keep sampleOpNoise as its oracle), and applies an injected
 * Pauli as a precomputed frame XOR instead of a dense gate.
 */
#ifndef VAQ_SIM_NOISE_SCRIPT_HPP
#define VAQ_SIM_NOISE_SCRIPT_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/trajectory_sim.hpp"

namespace vaq::sim
{

/** A non-identity Pauli injected as noise. */
enum class PauliKind : std::uint8_t
{
    X,
    Y,
    Z,
};

/** Gate kind applying the Pauli on the dense path. */
circuit::GateKind pauliGateKind(PauliKind pauli);

/**
 * Uniform non-identity Pauli — TrajectorySimulator's historical
 * draw: one uniformInt(3) mapping 0/1/2 to X/Y/Z.
 */
inline PauliKind
samplePauliKind(Rng &rng)
{
    const auto pick = rng.uniformInt(std::uint64_t{3});
    if (pick == 1)
        return PauliKind::Y;
    if (pick == 2)
        return PauliKind::Z;
    return PauliKind::X;
}

/** Noise schedule of one unitary gate. */
struct ScriptOp
{
    /** Index of the gate in the source circuit's gate list. */
    std::size_t gateIndex = 0;
    circuit::Qubit q0 = circuit::kNoQubit;
    /** Second operand; kNoQubit for one-qubit gates. */
    circuit::Qubit q1 = circuit::kNoQubit;
    /** Operational (gate) error probability. */
    double opProb = 0.0;
    /** Per-op coherence error probability. */
    double cohProb = 0.0;
    /** Slice [ctBegin, ctEnd) of NoiseScript::crosstalk. */
    std::size_t ctBegin = 0;
    std::size_t ctEnd = 0;
};

/** One spectator exposed to crosstalk from a two-qubit gate. A
 *  zero-probability event stays listed; like every Rng::bernoulli
 *  call, it draws no word at p <= 0. */
struct CrosstalkEvent
{
    circuit::Qubit spectator = circuit::kNoQubit;
    double prob = 0.0;
};

/** One measured qubit's readout bit-flip (ascending qubit order). */
struct ReadoutEvent
{
    circuit::Qubit qubit = circuit::kNoQubit;
    double prob = 0.0;
};

/** The full precompiled trial schedule of one (circuit, model,
 *  options) triple. */
struct NoiseScript
{
    /** One entry per unitary gate, circuit order. */
    std::vector<ScriptOp> ops;
    std::vector<CrosstalkEvent> crosstalk;
    std::vector<ReadoutEvent> readout;
    /** OR of (1 << q) over measured qubits. */
    std::uint64_t measuredMask = 0;
    /** Whether trials flip readout bits at all. */
    bool readoutNoise = true;

    /** Precompile the schedule. Probabilities are evaluated once;
     *  they are pure functions of (model, gate). */
    static NoiseScript compile(const circuit::Circuit &physical,
                               const NoiseModel &model,
                               const TrajectoryOptions &options);
};

/**
 * Draw one gate's noise events from `rng` in the canonical order,
 * calling apply(qubit, PauliKind) for every injected Pauli.
 */
template <typename Apply>
void
sampleOpNoise(const ScriptOp &op, const NoiseScript &script,
              Rng &rng, Apply &&apply)
{
    // Operational error: random non-identity Pauli on the operand
    // set (depolarizing-style); for two-qubit gates the second
    // operand is hit independently with probability 3/4, so at
    // least one operand is guaranteed a non-identity Pauli.
    if (rng.bernoulli(op.opProb)) {
        apply(op.q0, samplePauliKind(rng));
        if (op.q1 != circuit::kNoQubit && rng.bernoulli(0.75))
            apply(op.q1, samplePauliKind(rng));
    }
    // Decoherence during the gate.
    if (rng.bernoulli(op.cohProb))
        apply(op.q0, samplePauliKind(rng));
    // Crosstalk: spectators next to a firing two-qubit gate take
    // collateral damage.
    for (std::size_t i = op.ctBegin; i < op.ctEnd; ++i) {
        if (rng.bernoulli(script.crosstalk[i].prob))
            apply(script.crosstalk[i].spectator,
                  samplePauliKind(rng));
    }
}

/** Flip the outcome's measured bits per the readout error model,
 *  consuming one Bernoulli per measured qubit (ascending order). */
std::uint64_t applyReadoutNoise(const NoiseScript &script,
                                std::uint64_t outcome, Rng &rng);

/**
 * One dense-engine trial: fresh |0..0> state, gates interleaved with
 * sampled Pauli injections, a sample() draw, readout flips. Returns
 * the masked outcome. This is TrajectorySimulator's shot body, and
 * the reference the frame path is validated against per trial.
 */
std::uint64_t denseTrajectoryShot(const circuit::Circuit &physical,
                                  const NoiseScript &script,
                                  Rng &rng);

/** Measured-qubit mask of a circuit. */
std::uint64_t measuredMaskOf(const circuit::Circuit &circuit);

} // namespace vaq::sim

#endif // VAQ_SIM_NOISE_SCRIPT_HPP

/**
 * @file
 * Stochastic Pauli-frame fast path for Monte-Carlo fault injection.
 *
 * A trajectory trial interleaves random Pauli injections with the
 * circuit's gates. When every gate is Clifford, the noisy state
 * never needs amplitudes: it stays P |psi_ideal> for some Pauli P,
 * and P — the *frame* — is tracked as two packed uint64 bitmasks
 * (X and Z components, bit q = qubit q). Only the X mask at the end
 * of the circuit decides the outcome, and Clifford conjugation is
 * linear over GF(2), so each possible fault is propagated to the end
 * once, when the engine is built (a backward pass over the gates).
 * A trial is then its noise draws alone: every fault that fires
 * XORs one precomputed end-of-circuit X mask into the frame, and no
 * gate is conjugated per trial. This is the propagate-once,
 * sample-many scheme of Stim (Gidney, arXiv 2103.02202).
 *
 * The frame path is engineered to be *bit-exactly* equal to the
 * dense engine per trial at matched seeds, not merely statistically
 * equivalent:
 *  - both engines draw the NoiseScript schedule in the same order
 *    (sampleOpNoise's order); the frame kernel compiles each
 *    Bernoulli into a raw-word threshold that consumes the same
 *    words and fires on the same words, so the injected Paulis and
 *    their order are identical;
 *  - interleaved Pauli injections commute through the dense engine's
 *    float arithmetic exactly (Clifford matrices only permute,
 *    negate, multiply by +/-i and butterfly amplitudes; IEEE
 *    addition is commutative, negation exact, std::norm invariant
 *    under those phases), so the dense noisy probability vector is
 *    the ideal one XOR-permuted by the frame's X mask, bitwise;
 *  - the frame path replays StateVector::sample()'s exact
 *    subtraction walk over that permuted vector
 *    (FrameReference::DenseAmplitudes). The ideal probabilities come
 *    from sparseIdealProbabilities(), which repeats the dense
 *    engine's gate arithmetic over the non-zero amplitudes only and
 *    matches the dense run bitwise without allocating 2^n
 *    amplitudes.
 * Beyond that envelope (width or support too large) sampling
 * switches to an exact stabilizer-tableau description of the ideal
 * state (FrameReference::Tableau): the support of a stabilizer
 * state is an affine subspace offset ^ span(basis) with uniform
 * 2^-k outcome probabilities, sampled directly. There is no dense
 * run to compare against at those widths; cross-validation there is
 * statistical (tests/sim/test_frame_vs_dense.cpp).
 *
 * Circuits containing non-Clifford gates fall back to the dense
 * trajectory shot (same NoiseScript, same stream), counted in
 * sim.frame.fallbacks.
 */
#ifndef VAQ_SIM_PAULI_FRAME_HPP
#define VAQ_SIM_PAULI_FRAME_HPP

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/noise_script.hpp"
#include "sim/trajectory_sim.hpp"

namespace vaq::sim
{

/** True for gates the frame conjugates exactly: the Clifford
 *  unitaries I/X/Y/Z/H/S/Sdg/CX/CZ/SWAP plus the MEASURE/BARRIER
 *  pseudo-ops. */
bool isCliffordGate(circuit::GateKind kind);

/** Clifford / non-Clifford census of a circuit's unitary gates. */
struct FrameCounts
{
    std::size_t clifford = 0;
    std::size_t nonClifford = 0;
};

FrameCounts countCliffordGates(const circuit::Circuit &circuit);

/**
 * The Pauli frame: the accumulated error operator X^x Z^z (up to a
 * global phase, which never affects outcomes).
 */
struct PauliFrame
{
    std::uint64_t x = 0;
    std::uint64_t z = 0;

    /** Multiply an injected Pauli into the frame. */
    void
    inject(circuit::Qubit q, PauliKind pauli)
    {
        const std::uint64_t bit = 1ULL << q;
        if (pauli != PauliKind::Z)
            x ^= bit;
        if (pauli != PauliKind::X)
            z ^= bit;
    }
};

/** Frame conjugation alphabet of conjugateFrame(). Pauli gates and
 *  I conjugate every Pauli to itself up to phase, hence None. */
enum class FrameOpKind : std::uint8_t
{
    None,
    H,
    S, ///< S and Sdg act identically on frames (phases differ only)
    CX,
    CZ,
    Swap,
};

/**
 * Conjugate the frame forward through one Clifford gate:
 * f -> G f G^dag, operands as single-bit masks. Trials never call
 * it (they XOR precomputed fault images); it is the gate-by-gate
 * reference the fault tables are tested against.
 */
void conjugateFrame(PauliFrame &frame, FrameOpKind kind,
                    std::uint64_t m0, std::uint64_t m1);

/**
 * Affine support of a stabilizer state: the set
 * { offset ^ (c . basis) } with `basis` in reduced row-echelon form,
 * pivots strictly descending, and `offset` zero at every pivot. In
 * that normal form the numeric order of elements equals the
 * lexicographic order of coefficient words, so the m-th smallest
 * element is O(k) to index.
 */
struct AffineSupport
{
    std::uint64_t offset = 0;
    std::vector<std::uint64_t> basis;

    /** log2 of the support size. */
    std::size_t dimension() const { return basis.size(); }

    /** Membership test. */
    bool contains(std::uint64_t value) const;

    /** Canonical offset of the XOR-shifted coset (support ^ shift):
     *  same basis, new offset. */
    std::uint64_t shiftedOffset(std::uint64_t shift) const;

    /** m-th smallest element of (off ^ span(basis)) for a canonical
     *  `off`; m in [0, 2^k). */
    std::uint64_t elementAt(std::uint64_t m, std::uint64_t off) const;

    /** Projection onto the masked bits — itself an affine
     *  subspace. */
    AffineSupport masked(std::uint64_t mask) const;

    /** Normalize (offset, spanning vectors) into canonical form. */
    static AffineSupport fromVectors(
        std::uint64_t offset,
        const std::vector<std::uint64_t> &vectors);
};

/**
 * Aaronson-Gottesman stabilizer tableau over <= 64 qubits: n
 * generator rows, each a sign bit plus packed X/Z bitmasks. Used to
 * derive the exact ideal support where the dense reference is
 * infeasible, and to cross-check the dense support in tests.
 */
class StabilizerTableau
{
  public:
    /** Stabilizers of |0...0>: +Z_i. */
    explicit StabilizerTableau(int num_qubits);

    int numQubits() const { return _numQubits; }

    /** Conjugate the generators through one Clifford unitary
     *  (throws VaqError on non-Clifford gates). */
    void apply(const circuit::Gate &gate);

    /** Apply every unitary gate of a circuit. */
    void applyUnitaries(const circuit::Circuit &circuit);

    /** Exact support of the stabilized state. */
    AffineSupport support() const;

  private:
    struct Row
    {
        std::uint64_t x = 0;
        std::uint64_t z = 0;
        std::uint8_t r = 0; ///< sign exponent: (-1)^r
    };

    /** dst := src * dst (stabilizer elements commute, so the order
     *  is immaterial); Aaronson-Gottesman phase bookkeeping. */
    static void rowMult(Row &dst, const Row &src);

    int _numQubits;
    std::vector<Row> _rows;
};

/**
 * Ideal output distribution of a Clifford circuit: (basis state,
 * probability) for every non-zero probability, ascending state.
 * Bitwise equal to the non-zero entries of
 * StateVector::probabilities() after applyUnitaries(), computed by
 * repeating the dense engine's gate arithmetic over the non-zero
 * amplitudes only:
 *  - one-qubit gates pair each amplitude with its partner across
 *    the qubit's bit (an absent partner is +0) and run the dense
 *    pair update, applyPair(), on the pair;
 *  - CX and SWAP permute basis states, CZ negates;
 *  - amplitudes that come out exactly zero are dropped.
 * An absent partner differs from the dense one at most in the sign
 * of a zero, which never reaches a non-zero result or std::norm.
 * Each gate costs a few linear passes over a flat vector of the
 * support: CX and SWAP relabel states in place, and a one-qubit gate
 * restores ascending order with a radix sort before pairing. The
 * intermediate support can still reach 2^n. Throws
 * VaqError on non-Clifford gates or circuits wider than 64 qubits.
 */
std::vector<std::pair<std::uint64_t, double>>
sparseIdealProbabilities(const circuit::Circuit &circuit);

/** How frame-path trials turn a frame into an outcome. */
enum class FrameReference
{
    /** Replay of the dense sampler's float walk over the ideal
     *  probabilities of sparseIdealProbabilities() — bit-exact vs.
     *  the dense engine. */
    DenseAmplitudes,
    /** Exact stabilizer support with uniform outcome weights —
     *  used beyond the dense envelope. */
    Tableau,
};

/** Knobs of the frame engine. */
struct PauliFrameOptions
{
    /** Shot count, seed, readout/crosstalk toggles — shared with
     *  the dense engine so streams match. */
    TrajectoryOptions trajectory;
    /** Widest circuit sampled against a dense ideal reference. */
    int denseReferenceMaxQubits = 20;
};

/**
 * The per-trial engine. Construction classifies the circuit and
 * builds, inside the sim.frame.reference span (and the
 * sim.frame.reference.seconds histogram):
 *  - the fault tables: one backward pass over the script's gates
 *    records, for every (op, operand slot, Pauli kind), the X mask
 *    that fault leaves at the end of the circuit;
 *  - the ideal reference: the stabilizer tableau, plus the sparse
 *    ideal probabilities when the support fits the dense-amplitude
 *    envelope.
 * A trial is then O(noise draws + fired faults) for the frame, plus
 * the ideal sample: O(k) on the tableau, at most the support size
 * on the dense amplitudes. The referenced circuit and model must
 * outlive the engine. runShot() is const and safe to call
 * concurrently with distinct Rng streams.
 */
class PauliFrameSim
{
  public:
    PauliFrameSim(const circuit::Circuit &physical,
                  const NoiseModel &model,
                  const PauliFrameOptions &options = {});
    /** The engine borrows the circuit: a temporary would dangle. */
    PauliFrameSim(const circuit::Circuit &&, const NoiseModel &,
                  const PauliFrameOptions & = {}) = delete;

    /** True when trials run on the frame fast path. */
    bool framePath() const { return _framePath; }

    /** Why the engine fell back to dense trials ("" on the frame
     *  path). */
    const std::string &fallbackReason() const
    {
        return _fallbackReason;
    }

    /** Sampling reference of the frame path (meaningless when
     *  framePath() is false). */
    FrameReference reference() const { return _reference; }

    const FrameCounts &gateCounts() const { return _counts; }

    std::uint64_t measuredMask() const
    {
        return _script.measuredMask;
    }

    /**
     * Exact full-register support of the ideal state (frame path
     * only; throws VaqError on the fallback path, where no tableau
     * exists).
     */
    const AffineSupport &idealSupport() const;

    /**
     * Fault-table image (frame path only): the X mask, at the end of
     * the circuit, of `pauli` injected right after script op `op`'s
     * gate on operand slot `slot`. Slot 0 is the op's q0, slot 1 its
     * q1 (two-qubit gates), and the op's crosstalk spectators follow
     * in NoiseScript order.
     */
    std::uint64_t faultImage(std::size_t op, std::size_t slot,
                             PauliKind pauli) const;

    /**
     * Draw one trial's noise off `rng` (frame path only) and return
     * the X part of the resulting end-of-circuit frame. Consumes the
     * words sampleOpNoise() would over every script op, in order.
     */
    std::uint64_t sampleFrameX(Rng &rng) const;

    /**
     * Run one trial off `rng`, returning the masked outcome. On the
     * frame path this is sampleFrameX(), the ideal sample and the
     * readout flips, and it consumes the RNG stream exactly as a
     * dense trajectory shot does; on the fallback path it *is* a
     * dense trajectory shot.
     */
    std::uint64_t runShot(Rng &rng) const;

    /** TrajectorySimulator-compatible histogram run:
     *  options.trajectory.shots trials from a fresh
     *  Rng(options.trajectory.seed). */
    ShotCounts run() const;

  private:
    static constexpr std::uint32_t kNoPair = ~std::uint32_t{0};

    /** One Bernoulli event of the trial schedule, in draw order.
     *  Events with p <= 0 draw nothing and inject nothing, so they
     *  are left out. */
    struct FaultDraw
    {
        BernoulliDraw fires;
        /** _images row of the Pauli a firing event injects. */
        std::uint32_t row = 0;
        /** Operational error of a two-qubit gate: q1's row, hit on
         *  the 0.75 second-operand coin; kNoPair otherwise. */
        std::uint32_t pairRow = kNoPair;
    };

    void buildFaultTables();
    std::uint64_t sampleIdeal(Rng &rng, std::uint64_t frameX) const;

    const circuit::Circuit &_physical;
    PauliFrameOptions _options;
    NoiseScript _script;
    FrameCounts _counts;
    bool _framePath = false;
    std::string _fallbackReason;
    FrameReference _reference = FrameReference::Tableau;
    /** Trial schedule: every NoiseScript Bernoulli except those
     *  with p <= 0. */
    std::vector<FaultDraw> _draws;
    /** End-of-circuit X masks of an X, Y, Z fault, one row per
     *  (op, operand slot); indexed by PauliKind. */
    std::vector<std::array<std::uint64_t, 3>> _images;
    /** First _images row of each script op. */
    std::vector<std::uint32_t> _opRows;
    AffineSupport _support;
    /** DenseAmplitudes reference: (basis state, probability) pairs
     *  of every non-zero ideal probability, ascending state. */
    std::vector<std::pair<std::uint64_t, double>> _denseRef;
};

} // namespace vaq::sim

#endif // VAQ_SIM_PAULI_FRAME_HPP

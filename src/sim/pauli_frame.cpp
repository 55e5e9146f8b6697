#include "sim/pauli_frame.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_sim.hpp"
#include "sim/statevector.hpp"

namespace vaq::sim
{

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

bool
isCliffordGate(GateKind kind)
{
    switch (kind) {
      case GateKind::I:
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::H:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::SWAP:
      case GateKind::MEASURE:
      case GateKind::BARRIER:
        return true;
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::U3:
        return false;
    }
    VAQ_ASSERT(false, "unhandled gate kind");
    return false;
}

FrameCounts
countCliffordGates(const Circuit &circuit)
{
    FrameCounts counts;
    for (const Gate &g : circuit.gates()) {
        if (g.kind == GateKind::MEASURE ||
            g.kind == GateKind::BARRIER) {
            continue;
        }
        if (isCliffordGate(g.kind))
            ++counts.clifford;
        else
            ++counts.nonClifford;
    }
    return counts;
}

void
conjugateFrame(PauliFrame &frame, FrameOpKind kind, std::uint64_t m0,
               std::uint64_t m1)
{
    switch (kind) {
      case FrameOpKind::None:
        return;
      case FrameOpKind::H: {
        // H swaps the X and Z components on the operand.
        const bool xb = frame.x & m0;
        const bool zb = frame.z & m0;
        if (xb != zb) {
            frame.x ^= m0;
            frame.z ^= m0;
        }
        return;
      }
      case FrameOpKind::S:
        // S X S^dag = Y (and Sdg X S = -Y): an X component grows a
        // Z component; Z components pass through.
        if (frame.x & m0)
            frame.z ^= m0;
        return;
      case FrameOpKind::CX:
        // X on the control copies onto the target; Z on the target
        // copies onto the control.
        if (frame.x & m0)
            frame.x ^= m1;
        if (frame.z & m1)
            frame.z ^= m0;
        return;
      case FrameOpKind::CZ:
        // X on either operand grows a Z on the other.
        if (frame.x & m0)
            frame.z ^= m1;
        if (frame.x & m1)
            frame.z ^= m0;
        return;
      case FrameOpKind::Swap: {
        const bool xa = frame.x & m0;
        const bool xb = frame.x & m1;
        if (xa != xb)
            frame.x ^= m0 | m1;
        const bool za = frame.z & m0;
        const bool zb = frame.z & m1;
        if (za != zb)
            frame.z ^= m0 | m1;
        return;
      }
    }
    VAQ_ASSERT(false, "unhandled frame op");
}

bool
AffineSupport::contains(std::uint64_t value) const
{
    std::uint64_t t = value ^ offset;
    for (std::uint64_t v : basis) {
        const int p = std::bit_width(v) - 1;
        if ((t >> p) & 1)
            t ^= v;
    }
    return t == 0;
}

std::uint64_t
AffineSupport::shiftedOffset(std::uint64_t shift) const
{
    std::uint64_t off = offset ^ shift;
    for (std::uint64_t v : basis) {
        const int p = std::bit_width(v) - 1;
        if ((off >> p) & 1)
            off ^= v;
    }
    return off;
}

std::uint64_t
AffineSupport::elementAt(std::uint64_t m, std::uint64_t off) const
{
    // Pivots descend, so coefficient word order == numeric order:
    // bit (k-1-j) of m selects basis[j].
    const std::size_t k = basis.size();
    std::uint64_t element = off;
    for (std::size_t j = 0; j < k; ++j) {
        if ((m >> (k - 1 - j)) & 1)
            element ^= basis[j];
    }
    return element;
}

AffineSupport
AffineSupport::masked(std::uint64_t mask) const
{
    std::vector<std::uint64_t> vectors;
    vectors.reserve(basis.size());
    for (std::uint64_t v : basis)
        vectors.push_back(v & mask);
    return fromVectors(offset & mask, vectors);
}

AffineSupport
AffineSupport::fromVectors(std::uint64_t offset,
                           const std::vector<std::uint64_t> &vectors)
{
    std::uint64_t slot[64] = {};
    for (std::uint64_t v : vectors) {
        while (v != 0) {
            const int b = std::bit_width(v) - 1;
            if (slot[b] == 0) {
                slot[b] = v;
                break;
            }
            v ^= slot[b];
        }
    }
    // Reduce to RREF: clear every pivot column from the other rows.
    for (int b = 0; b < 64; ++b) {
        if (slot[b] == 0)
            continue;
        for (int b2 = b + 1; b2 < 64; ++b2) {
            if (slot[b2] != 0 && ((slot[b2] >> b) & 1))
                slot[b2] ^= slot[b];
        }
    }
    AffineSupport support;
    for (int b = 63; b >= 0; --b) {
        if (slot[b] != 0) {
            support.basis.push_back(slot[b]);
            if ((offset >> b) & 1)
                offset ^= slot[b];
        }
    }
    support.offset = offset;
    return support;
}

StabilizerTableau::StabilizerTableau(int num_qubits)
    : _numQubits(num_qubits)
{
    require(num_qubits >= 1 && num_qubits <= 64,
            "stabilizer tableau supports 1..64 qubits");
    _rows.resize(static_cast<std::size_t>(num_qubits));
    for (int q = 0; q < num_qubits; ++q)
        _rows[static_cast<std::size_t>(q)].z = 1ULL << q;
}

void
StabilizerTableau::rowMult(Row &dst, const Row &src)
{
    // Aaronson-Gottesman phase bookkeeping: i-exponent contribution
    // of multiplying the single-qubit factors, summed mod 4.
    int sum = 2 * (dst.r + src.r);
    std::uint64_t active = src.x | src.z;
    while (active != 0) {
        const int q = std::countr_zero(active);
        active &= active - 1;
        const int x1 = static_cast<int>((src.x >> q) & 1);
        const int z1 = static_cast<int>((src.z >> q) & 1);
        const int x2 = static_cast<int>((dst.x >> q) & 1);
        const int z2 = static_cast<int>((dst.z >> q) & 1);
        if (x1 != 0 && z1 != 0)
            sum += z2 - x2;
        else if (x1 != 0)
            sum += z2 * (2 * x2 - 1);
        else
            sum += x2 * (1 - 2 * z2);
    }
    sum = ((sum % 4) + 4) % 4;
    VAQ_ASSERT(sum == 0 || sum == 2,
               "stabilizer generators must commute");
    dst.r = sum == 2 ? 1 : 0;
    dst.x ^= src.x;
    dst.z ^= src.z;
}

void
StabilizerTableau::apply(const Gate &gate)
{
    require(gate.isUnitary(),
            "cannot apply measure/barrier to a tableau");
    if (!isCliffordGate(gate.kind)) {
        throw VaqError("tableau supports Clifford gates only, got " +
                       circuit::gateName(gate.kind));
    }

    const auto h = [&](Qubit q) {
        const std::uint64_t bit = 1ULL << q;
        for (Row &row : _rows) {
            const bool xb = row.x & bit;
            const bool zb = row.z & bit;
            row.r ^= static_cast<std::uint8_t>(xb && zb);
            if (xb != zb) {
                row.x ^= bit;
                row.z ^= bit;
            }
        }
    };
    const auto cx = [&](Qubit c, Qubit t) {
        const std::uint64_t cbit = 1ULL << c;
        const std::uint64_t tbit = 1ULL << t;
        for (Row &row : _rows) {
            const bool xc = row.x & cbit;
            const bool zc = row.z & cbit;
            const bool xt = row.x & tbit;
            const bool zt = row.z & tbit;
            row.r ^= static_cast<std::uint8_t>(xc && zt &&
                                               (xt == zc));
            if (xc)
                row.x ^= tbit;
            if (zt)
                row.z ^= cbit;
        }
    };

    const std::uint64_t bit = 1ULL << gate.q0;
    switch (gate.kind) {
      case GateKind::I:
        return;
      case GateKind::X:
        for (Row &row : _rows)
            row.r ^= static_cast<std::uint8_t>((row.z >> gate.q0) & 1);
        return;
      case GateKind::Y:
        for (Row &row : _rows) {
            row.r ^= static_cast<std::uint8_t>(
                ((row.x ^ row.z) >> gate.q0) & 1);
        }
        return;
      case GateKind::Z:
        for (Row &row : _rows)
            row.r ^= static_cast<std::uint8_t>((row.x >> gate.q0) & 1);
        return;
      case GateKind::H:
        h(gate.q0);
        return;
      case GateKind::S:
        for (Row &row : _rows) {
            const bool xb = row.x & bit;
            const bool zb = row.z & bit;
            row.r ^= static_cast<std::uint8_t>(xb && zb);
            if (xb)
                row.z ^= bit;
        }
        return;
      case GateKind::Sdg:
        for (Row &row : _rows) {
            const bool xb = row.x & bit;
            const bool zb = row.z & bit;
            row.r ^= static_cast<std::uint8_t>(xb && !zb);
            if (xb)
                row.z ^= bit;
        }
        return;
      case GateKind::CX:
        cx(gate.q0, gate.q1);
        return;
      case GateKind::CZ:
        // CZ = (I x H) CX (I x H), composed from exact updates.
        h(gate.q1);
        cx(gate.q0, gate.q1);
        h(gate.q1);
        return;
      case GateKind::SWAP: {
        const std::uint64_t abit = 1ULL << gate.q0;
        const std::uint64_t bbit = 1ULL << gate.q1;
        for (Row &row : _rows) {
            const bool xa = row.x & abit;
            const bool xb2 = row.x & bbit;
            if (xa != xb2)
                row.x ^= abit | bbit;
            const bool za = row.z & abit;
            const bool zb2 = row.z & bbit;
            if (za != zb2)
                row.z ^= abit | bbit;
        }
        return;
      }
      default:
        break;
    }
    VAQ_ASSERT(false, "unhandled Clifford gate in tableau");
}

void
StabilizerTableau::applyUnitaries(const Circuit &circuit)
{
    require(circuit.numQubits() <= _numQubits,
            "circuit wider than tableau");
    for (const Gate &gate : circuit.gates()) {
        if (gate.isUnitary())
            apply(gate);
    }
}

AffineSupport
StabilizerTableau::support() const
{
    std::vector<Row> rows = _rows;
    std::vector<char> used(rows.size(), 0);

    // Row-reduce the X parts, high bit to low. Used pivot rows are
    // reduced too (i != pivot), so the X basis ends in RREF.
    std::vector<std::size_t> xPivotRows;
    for (int b = _numQubits - 1; b >= 0; --b) {
        std::size_t pivot = rows.size();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (!used[i] && ((rows[i].x >> b) & 1)) {
                pivot = i;
                break;
            }
        }
        if (pivot == rows.size())
            continue;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i != pivot && ((rows[i].x >> b) & 1))
                rowMult(rows[i], rows[pivot]);
        }
        used[pivot] = 1;
        xPivotRows.push_back(pivot);
    }

    // The remaining rows are Z-only: each is a parity constraint
    // z . s = r on every support element s. Reduce them to RREF over
    // the Z parts (signs updated through rowMult) so the offset can
    // be read off pivot-by-pivot.
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!used[i]) {
            VAQ_ASSERT(rows[i].x == 0,
                       "unpivoted row with X component");
            rest.push_back(i);
        }
    }
    std::vector<char> zUsed(rest.size(), 0);
    std::vector<std::size_t> zPivotRow(
        static_cast<std::size_t>(_numQubits), rest.size());
    for (int b = _numQubits - 1; b >= 0; --b) {
        std::size_t pivot = rest.size();
        for (std::size_t i = 0; i < rest.size(); ++i) {
            if (!zUsed[i] && ((rows[rest[i]].z >> b) & 1)) {
                pivot = i;
                break;
            }
        }
        if (pivot == rest.size())
            continue;
        for (std::size_t i = 0; i < rest.size(); ++i) {
            if (i != pivot && ((rows[rest[i]].z >> b) & 1))
                rowMult(rows[rest[i]], rows[rest[pivot]]);
        }
        zUsed[pivot] = 1;
        zPivotRow[static_cast<std::size_t>(b)] = pivot;
    }
    for (std::size_t i = 0; i < rest.size(); ++i) {
        VAQ_ASSERT(zUsed[i],
                   "dependent generator rows in stabilizer tableau");
    }
    // Read the offset bits only once elimination has finished: a
    // pivot row picked at a high bit is still reduced (and its sign
    // flipped) by lower-bit pivots afterwards, so its r is not final
    // at selection time.
    std::uint64_t offset = 0;
    for (int b = 0; b < _numQubits; ++b) {
        const std::size_t pivot = zPivotRow[static_cast<std::size_t>(b)];
        if (pivot != rest.size() && rows[rest[pivot]].r != 0)
            offset |= 1ULL << b;
    }

    // Canonicalize the offset against the X basis (every basis
    // vector satisfies the Z constraints — generators commute — so
    // the reduced offset is still a support element).
    AffineSupport support;
    support.basis.reserve(xPivotRows.size());
    for (std::size_t idx : xPivotRows)
        support.basis.push_back(rows[idx].x);
    for (std::uint64_t v : support.basis) {
        const int p = std::bit_width(v) - 1;
        if ((offset >> p) & 1)
            offset ^= v;
    }
    support.offset = offset;
    return support;
}

namespace
{

/** One non-zero amplitude of the sparse ideal replay. */
struct SparseAmp
{
    std::uint64_t state;
    Amplitude amp;
};

/**
 * StateVector's gate arithmetic over the non-zero amplitudes only,
 * kept in a flat vector. CX and SWAP relabel states in place and
 * leave the vector unsorted; a one-qubit gate first restores
 * ascending order with an LSD radix sort, then pairs partners block
 * by block and writes its output already sorted. Every gate is a
 * few linear passes: no comparison sort, no tree.
 */
class SparseReplay
{
  public:
    SparseReplay() { _cur.push_back({0, Amplitude(1.0, 0.0)}); }

    /** Non-zero amplitudes, ascending state. */
    const std::vector<SparseAmp> &
    amplitudes()
    {
        sortByState();
        return _cur;
    }

    void
    apply(const Gate &gate)
    {
        const int a = gate.q0;
        const int b = gate.q1;
        switch (gate.kind) {
          case GateKind::I:
            return;
          case GateKind::CX:
            // Control set: the target bit flips.
            for (SparseAmp &e : _cur)
                e.state ^= ((e.state >> a) & 1) << b;
            _sorted = false;
            return;
          case GateKind::CZ: {
            const std::uint64_t both = (1ULL << a) | (1ULL << b);
            for (SparseAmp &e : _cur) {
                if ((e.state & both) == both)
                    e.amp = -e.amp;
            }
            return;
          }
          case GateKind::SWAP:
            for (SparseAmp &e : _cur) {
                const std::uint64_t d = ((e.state >> a) ^ (e.state >> b)) & 1;
                e.state ^= (d << a) | (d << b);
            }
            _sorted = false;
            return;
          default:
            oneQubit(1ULL << a, cliffordMatrix(gate.kind).m);
            return;
        }
    }

  private:
    /**
     * Pair every entry with its partner across `bit` (an absent
     * partner is +0) and run StateVector's pair update on it. In a
     * sorted vector the states sharing the bits above `bit` form a
     * block, bit-clear entries first; each block's outputs are
     * emitted bit-clear half first, so the result stays sorted.
     */
    void
    oneQubit(std::uint64_t bit, const Amplitude m[2][2])
    {
        sortByState();
        const std::uint64_t low = bit - 1;
        const std::uint64_t high = ~(low | bit);
        // Low bits never reach ~0, so it marks an exhausted half.
        constexpr std::uint64_t kNone = ~0ULL;
        const std::size_t n = _cur.size();
        _next.clear();
        _next.reserve(2 * n);
        std::size_t i = 0;
        while (i < n) {
            const std::uint64_t block = _cur[i].state & high;
            std::size_t mid = i;
            while (mid < n && (_cur[mid].state & ~low) == block)
                ++mid;
            std::size_t end = mid;
            while (end < n && (_cur[end].state & high) == block)
                ++end;
            _hi.clear();
            for (std::size_t x = i, y = mid; x < mid || y < end;) {
                const std::uint64_t k0 =
                    x < mid ? _cur[x].state & low : kNone;
                const std::uint64_t k1 =
                    y < end ? _cur[y].state & low : kNone;
                const std::uint64_t key = std::min(k0, k1);
                Amplitude a0(0.0, 0.0);
                Amplitude a1(0.0, 0.0);
                if (k0 == key)
                    a0 = _cur[x++].amp;
                if (k1 == key)
                    a1 = _cur[y++].amp;
                applyPair(m, a0, a1);
                if (a0 != Amplitude(0.0, 0.0))
                    _next.push_back({block | key, a0});
                if (a1 != Amplitude(0.0, 0.0))
                    _hi.push_back({block | bit | key, a1});
            }
            // Blocks are often one or two entries: a plain loop
            // beats a range insert here.
            for (const SparseAmp &e : _hi)
                _next.push_back(e);
            i = end;
        }
        _cur.swap(_next);
    }

    /** Stable LSD radix sort on the state over the bits any state
     *  uses. Digits are at most 11 bits and no wider than the
     *  vector's size needs, so tiny supports skip wide histograms. */
    void
    sortByState()
    {
        if (_sorted)
            return;
        _sorted = true;
        const auto byState = [](const SparseAmp &x, const SparseAmp &y) {
            return x.state < y.state;
        };
        if (std::is_sorted(_cur.begin(), _cur.end(), byState))
            return;
        std::uint64_t used = 0;
        for (const SparseAmp &e : _cur)
            used |= e.state;
        const int width = std::bit_width(used);
        const int digitBits =
            std::clamp(static_cast<int>(std::bit_width(_cur.size())), 1, 11);
        const std::uint64_t digitMask = (1ULL << digitBits) - 1;
        _next.resize(_cur.size());
        for (int shift = 0; shift < width; shift += digitBits) {
            _offset.assign(digitMask + 2, 0);
            for (const SparseAmp &e : _cur)
                ++_offset[((e.state >> shift) & digitMask) + 1];
            for (std::size_t d = 1; d < _offset.size(); ++d)
                _offset[d] += _offset[d - 1];
            for (const SparseAmp &e : _cur)
                _next[_offset[(e.state >> shift) & digitMask]++] = e;
            _cur.swap(_next);
        }
    }

    std::vector<SparseAmp> _cur;
    std::vector<SparseAmp> _next;
    std::vector<SparseAmp> _hi;
    std::vector<std::size_t> _offset;
    bool _sorted = true;
};

} // namespace

std::vector<std::pair<std::uint64_t, double>>
sparseIdealProbabilities(const Circuit &circuit)
{
    require(circuit.numQubits() <= 64,
            "sparse ideal replay supports at most 64 qubits");
    SparseReplay replay;
    for (const Gate &gate : circuit.gates()) {
        if (!gate.isUnitary())
            continue;
        if (!isCliffordGate(gate.kind)) {
            throw VaqError("sparse ideal replay supports Clifford gates "
                           "only, got " +
                           circuit::gateName(gate.kind));
        }
        replay.apply(gate);
    }
    const std::vector<SparseAmp> &amplitudes = replay.amplitudes();
    std::vector<std::pair<std::uint64_t, double>> probabilities;
    probabilities.reserve(amplitudes.size());
    for (const SparseAmp &e : amplitudes) {
        const double p = std::norm(e.amp);
        if (p != 0.0)
            probabilities.push_back({e.state, p});
    }
    return probabilities;
}

namespace
{

/** Largest ideal support replayed densely per shot; bigger supports
 *  switch to the tableau reference. */
constexpr std::size_t kMaxDenseSupport = 4096;

/** Second-operand coin of a two-qubit operational error:
 *  bernoulli(0.75) as a raw-word compare. */
constexpr std::uint64_t kSecondOperandThreshold = 0xC000000000000000ULL;
// Rng::bernoulliThreshold(0.75): 0.75 * 2^53 is an integer, so its
// ceil is itself.
static_assert(kSecondOperandThreshold ==
              static_cast<std::uint64_t>(0.75 * 0x1.0p53) << 11);

/**
 * Pull end-of-circuit images back through one gate. On entry
 * xImg[q] / zImg[q] are the end-of-circuit X masks of an X / Z fault
 * on q just after `gate`; on exit, just before it. Pulling back
 * through G maps a fault P to the images of G P G^dag, and that
 * map is linear over GF(2).
 */
void
pullBack(const Gate &gate, std::vector<std::uint64_t> &xImg,
         std::vector<std::uint64_t> &zImg)
{
    const auto a = static_cast<std::size_t>(gate.q0);
    const auto b = static_cast<std::size_t>(gate.q1);
    switch (gate.kind) {
      case GateKind::H:
        // H X H = Z and H Z H = X.
        std::swap(xImg[a], zImg[a]);
        return;
      case GateKind::S:
      case GateKind::Sdg:
        // X becomes +-Y = X Z up to phase; Z passes through.
        xImg[a] ^= zImg[a];
        return;
      case GateKind::CX:
        // X on the control spreads to the target; Z on the target
        // spreads to the control.
        xImg[a] ^= xImg[b];
        zImg[b] ^= zImg[a];
        return;
      case GateKind::CZ:
        // X on either operand grows a Z on the other.
        xImg[a] ^= zImg[b];
        xImg[b] ^= zImg[a];
        return;
      case GateKind::SWAP:
        std::swap(xImg[a], xImg[b]);
        std::swap(zImg[a], zImg[b]);
        return;
      default:
        // I and the Paulis fix every Pauli up to phase.
        return;
    }
}

} // namespace

PauliFrameSim::PauliFrameSim(const Circuit &physical,
                             const NoiseModel &model,
                             const PauliFrameOptions &options)
    : _physical(physical), _options(options),
      _script(NoiseScript::compile(physical, model,
                                   options.trajectory))
{
    require(options.trajectory.shots > 0, "need at least one shot");
    checkExecutable(physical, model);
    _counts = countCliffordGates(physical);

    const bool telemetry = obs::enabled();
    if (telemetry) {
        obs::count("sim.frame.clifford_gates", _counts.clifford);
        obs::count("sim.frame.nonclifford_gates",
                   _counts.nonClifford);
    }

    if (_counts.nonClifford > 0) {
        _fallbackReason = std::to_string(_counts.nonClifford) +
                          " non-Clifford gate(s)";
    } else if (physical.numQubits() > 64) {
        _fallbackReason = "circuit wider than 64 qubits";
    }
    if (!_fallbackReason.empty()) {
        if (telemetry)
            obs::count("sim.frame.fallbacks");
        return;
    }
    _framePath = true;

    obs::Span referenceSpan("sim.frame.reference", telemetry);
    obs::ScopedTimer referenceTimer("sim.frame.reference.seconds",
                                    telemetry);
    buildFaultTables();
    StabilizerTableau tableau(physical.numQubits());
    tableau.applyUnitaries(physical);
    _support = tableau.support();

    // Prefer the dense-amplitude reference when feasible: its
    // per-shot walk replays the dense sampler's exact float
    // subtractions, making frame trials bit-identical to dense
    // trials. Every tableau-support state has a non-zero dense
    // probability, so a support wider than kMaxDenseSupport can
    // never pass the size check and the replay is skipped.
    _reference = FrameReference::Tableau;
    const std::size_t k = _support.dimension();
    if (physical.numQubits() <=
            std::min(options.denseReferenceMaxQubits, 27) &&
        k < 64 && (1ULL << k) <= kMaxDenseSupport) {
        auto entries = sparseIdealProbabilities(physical);
        if (entries.size() <= kMaxDenseSupport) {
            _denseRef = std::move(entries);
            _reference = FrameReference::DenseAmplitudes;
        }
    }
}

void
PauliFrameSim::buildFaultTables()
{
    // One row per (op, operand slot): q0, q1 of a two-qubit gate,
    // then the crosstalk spectators in script order.
    const std::vector<ScriptOp> &ops = _script.ops;
    _opRows.reserve(ops.size());
    std::size_t rows = 0;
    for (const ScriptOp &op : ops) {
        _opRows.push_back(static_cast<std::uint32_t>(rows));
        rows += (op.q1 != circuit::kNoQubit ? 2 : 1) +
                (op.ctEnd - op.ctBegin);
    }
    require(rows < kNoPair, "noise script too long for fault tables");

    // Backward pass: before op i's gate is pulled back, the images
    // are those of a fault injected right after it -- where
    // sampleOpNoise injects op i's faults.
    const auto n = static_cast<std::size_t>(_physical.numQubits());
    std::vector<std::uint64_t> xImg(n);
    std::vector<std::uint64_t> zImg(n, 0);
    for (std::size_t q = 0; q < n; ++q)
        xImg[q] = 1ULL << q;
    _images.resize(rows);
    const auto &gates = _physical.gates();
    for (std::size_t i = ops.size(); i-- > 0;) {
        const ScriptOp &op = ops[i];
        std::size_t row = _opRows[i];
        const auto record = [&](Qubit q) {
            const auto x = xImg[static_cast<std::size_t>(q)];
            const auto z = zImg[static_cast<std::size_t>(q)];
            // Indexed by PauliKind: X, Y = XZ, Z.
            _images[row++] = {x, x ^ z, z};
        };
        record(op.q0);
        if (op.q1 != circuit::kNoQubit)
            record(op.q1);
        for (std::size_t c = op.ctBegin; c < op.ctEnd; ++c)
            record(_script.crosstalk[c].spectator);
        pullBack(gates[op.gateIndex], xImg, zImg);
    }

    // The trial schedule, in sampleOpNoise's draw order.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ScriptOp &op = ops[i];
        const std::uint32_t row = _opRows[i];
        const bool twoQubit = op.q1 != circuit::kNoQubit;
        const auto add = [&](double p, std::uint32_t target,
                             std::uint32_t pair) {
            const BernoulliDraw draw = BernoulliDraw::compile(p);
            if (draw.mode != BernoulliDraw::Mode::Never)
                _draws.push_back({draw, target, pair});
        };
        add(op.opProb, row, twoQubit ? row + 1 : kNoPair);
        add(op.cohProb, row, kNoPair);
        std::uint32_t spectatorRow = row + (twoQubit ? 2 : 1);
        for (std::size_t c = op.ctBegin; c < op.ctEnd; ++c)
            add(_script.crosstalk[c].prob, spectatorRow++, kNoPair);
    }
}

std::uint64_t
PauliFrameSim::faultImage(std::size_t op, std::size_t slot,
                          PauliKind pauli) const
{
    require(_framePath, "no fault tables on the dense fallback path");
    require(op < _opRows.size(), "fault table op out of range");
    const std::size_t end =
        op + 1 < _opRows.size() ? _opRows[op + 1] : _images.size();
    require(_opRows[op] + slot < end, "fault table slot out of range");
    return _images[_opRows[op] + slot][static_cast<std::size_t>(pauli)];
}

const AffineSupport &
PauliFrameSim::idealSupport() const
{
    require(_framePath,
            "no stabilizer support on the dense fallback path");
    return _support;
}

std::uint64_t
PauliFrameSim::sampleIdeal(Rng &rng, std::uint64_t frameX) const
{
    if (_reference == FrameReference::DenseAmplitudes) {
        // Replay StateVector::sample()'s walk over the XOR-permuted
        // ideal probabilities: visit the shifted support ascending,
        // subtract the same doubles, keep the dim-1 fallback (the
        // dense loop never compares against the last index).
        double r = rng.uniform();
        const std::uint64_t dim = 1ULL << _physical.numQubits();
        // Per-thread scratch: runShot() stays const and reentrant
        // without an allocation per trial.
        thread_local std::vector<std::pair<std::uint64_t, double>>
            shifted;
        shifted.clear();
        for (const auto &[s, p] : _denseRef)
            shifted.push_back({s ^ frameX, p});
        std::sort(shifted.begin(), shifted.end());
        for (const auto &[t, p] : shifted) {
            if (t == dim - 1)
                continue;
            if (r < p)
                return t;
            r -= p;
        }
        return dim - 1;
    }

    // Tableau reference: outcomes are uniform over the shifted
    // support; one uniform draw picks the m-th smallest element.
    const double r = rng.uniform();
    const std::size_t k = _support.dimension();
    std::uint64_t m = 0;
    if (k > 0) {
        m = static_cast<std::uint64_t>(
            std::ldexp(r, static_cast<int>(k)));
        const std::uint64_t last =
            k >= 64 ? ~0ULL : (1ULL << k) - 1;
        m = std::min(m, last);
    }
    return _support.elementAt(m, _support.shiftedOffset(frameX));
}

std::uint64_t
PauliFrameSim::sampleFrameX(Rng &rng) const
{
    VAQ_ASSERT(_framePath, "no fault tables on the fallback path");
    // Work on a local copy of the stream so its state can live in
    // registers: the table loads are 64-bit words too, and the
    // compiler cannot otherwise prove they do not alias it.
    Rng local = rng;
    std::uint64_t frameX = 0;
    for (const FaultDraw &draw : _draws) {
        if (!draw.fires(local))
            continue;
        frameX ^= _images[draw.row][static_cast<std::size_t>(
            samplePauliKind(local))];
        if (draw.pairRow != kNoPair &&
            local.nextRaw() < kSecondOperandThreshold) {
            frameX ^= _images[draw.pairRow][static_cast<std::size_t>(
                samplePauliKind(local))];
        }
    }
    rng = local;
    return frameX;
}

std::uint64_t
PauliFrameSim::runShot(Rng &rng) const
{
    if (!_framePath)
        return denseTrajectoryShot(_physical, _script, rng);

    const std::uint64_t frameX = sampleFrameX(rng);
    const std::uint64_t outcome =
        sampleIdeal(rng, frameX) & _script.measuredMask;
    return applyReadoutNoise(_script, outcome, rng);
}

ShotCounts
PauliFrameSim::run() const
{
    require(_script.measuredMask != 0,
            "program measures no qubits");
    ShotCounts result;
    result.shots = _options.trajectory.shots;
    result.measuredMask = _script.measuredMask;
    Rng rng(_options.trajectory.seed);
    for (std::size_t shot = 0; shot < result.shots; ++shot)
        ++result.counts[runShot(rng)];
    if (_framePath && obs::enabled())
        obs::count("sim.frame.trials", result.shots);
    return result;
}

} // namespace vaq::sim

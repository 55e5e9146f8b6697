#include "workloads/workloads.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vaq::workloads
{

using circuit::Circuit;
using circuit::Qubit;

Circuit
bernsteinVazirani(int num_qubits, std::uint64_t secret)
{
    require(num_qubits >= 2, "bv needs a data qubit and an ancilla");
    const int data = num_qubits - 1;
    const Qubit ancilla = num_qubits - 1;

    Circuit c(num_qubits);
    // Oracle ancilla in |->.
    c.x(ancilla).h(ancilla);
    for (Qubit q = 0; q < data; ++q)
        c.h(q);
    // Phase-kickback oracle for the hidden string.
    for (Qubit q = 0; q < data; ++q) {
        if (secret & (1ULL << q))
            c.cx(q, ancilla);
    }
    for (Qubit q = 0; q < data; ++q)
        c.h(q);
    for (Qubit q = 0; q < data; ++q)
        c.measure(q);
    return c;
}

namespace
{

/** Controlled-phase(theta) via the {CX, RZ} decomposition. */
void
controlledPhase(Circuit &c, Qubit control, Qubit target,
                double theta)
{
    c.rz(control, theta / 2.0);
    c.cx(control, target);
    c.rz(target, -theta / 2.0);
    c.cx(control, target);
    c.rz(target, theta / 2.0);
}

/** Toffoli (CCX) via the standard 6-CX + T network. */
void
toffoli(Circuit &c, Qubit a, Qubit b, Qubit target)
{
    c.h(target);
    c.cx(b, target);
    c.tdg(target);
    c.cx(a, target);
    c.t(target);
    c.cx(b, target);
    c.tdg(target);
    c.cx(a, target);
    c.t(b);
    c.t(target);
    c.h(target);
    c.cx(a, b);
    c.t(a);
    c.tdg(b);
    c.cx(a, b);
}

} // namespace

Circuit
qft(int num_qubits, bool with_reversal)
{
    require(num_qubits >= 1, "qft needs at least one qubit");
    Circuit c(num_qubits);
    for (Qubit i = 0; i < num_qubits; ++i) {
        c.h(i);
        for (Qubit j = i + 1; j < num_qubits; ++j) {
            const double theta =
                M_PI / std::pow(2.0, static_cast<double>(j - i));
            controlledPhase(c, j, i, theta);
        }
    }
    if (with_reversal) {
        for (Qubit i = 0; i < num_qubits / 2; ++i)
            c.swap(i, num_qubits - 1 - i);
    }
    c.measureAll();
    return c;
}

Circuit
adder(int bits, std::uint64_t a_init, std::uint64_t b_init,
      bool carry_in)
{
    require(bits >= 1, "adder needs at least one bit");
    // Register layout: a[0..bits), b[0..bits), cin, cout.
    const int n = 2 * bits + 2;
    const Qubit cin = 2 * bits;
    const Qubit cout = 2 * bits + 1;
    auto qa = [bits](int i) {
        require(i >= 0 && i < bits, "a-register index");
        return static_cast<Qubit>(i);
    };
    auto qb = [bits](int i) {
        require(i >= 0 && i < bits, "b-register index");
        return static_cast<Qubit>(bits + i);
    };

    Circuit c(n);
    // Prepare inputs.
    for (int i = 0; i < bits; ++i) {
        if (a_init & (1ULL << i))
            c.x(qa(i));
        if (b_init & (1ULL << i))
            c.x(qb(i));
    }
    if (carry_in)
        c.x(cin);

    // Cuccaro MAJ chain: MAJ(c, b, a) = cx(a,b); cx(a,c); ccx(c,b,a)
    auto maj = [&](Qubit carry, Qubit sum, Qubit top) {
        c.cx(top, sum);
        c.cx(top, carry);
        toffoli(c, carry, sum, top);
    };
    // UMA(c, b, a) = ccx(c,b,a); cx(a,c); cx(c,b)
    auto uma = [&](Qubit carry, Qubit sum, Qubit top) {
        toffoli(c, carry, sum, top);
        c.cx(top, carry);
        c.cx(carry, sum);
    };

    maj(cin, qb(0), qa(0));
    for (int i = 1; i < bits; ++i)
        maj(qa(i - 1), qb(i), qa(i));
    c.cx(qa(bits - 1), cout);
    for (int i = bits - 1; i >= 1; --i)
        uma(qa(i - 1), qb(i), qa(i));
    uma(cin, qb(0), qa(0));

    // Read out the sum register and carry-out.
    for (int i = 0; i < bits; ++i)
        c.measure(qb(i));
    c.measure(cout);
    return c;
}

Circuit
ghz(int num_qubits)
{
    require(num_qubits >= 2, "ghz needs at least two qubits");
    Circuit c(num_qubits);
    c.h(0);
    for (Qubit q = 0; q + 1 < num_qubits; ++q)
        c.cx(q, q + 1);
    c.measureAll();
    return c;
}

namespace
{

/** Z controlled on every data qubit being |1> (n in {2, 3}). */
void
multiControlledZ(Circuit &c, int num_qubits)
{
    if (num_qubits == 2) {
        c.cz(0, 1);
        return;
    }
    // CCZ = H(2) CCX(0,1,2) H(2).
    c.h(2);
    toffoli(c, 0, 1, 2);
    c.h(2);
}

/** Phase-flip the marked basis state of the data register. */
void
groverOracle(Circuit &c, int num_qubits, std::uint64_t marked)
{
    for (int q = 0; q < num_qubits; ++q) {
        if (!(marked & (1ULL << q)))
            c.x(q);
    }
    multiControlledZ(c, num_qubits);
    for (int q = 0; q < num_qubits; ++q) {
        if (!(marked & (1ULL << q)))
            c.x(q);
    }
}

/** Inversion about the mean. */
void
groverDiffusion(Circuit &c, int num_qubits)
{
    for (int q = 0; q < num_qubits; ++q)
        c.h(q);
    for (int q = 0; q < num_qubits; ++q)
        c.x(q);
    multiControlledZ(c, num_qubits);
    for (int q = 0; q < num_qubits; ++q)
        c.x(q);
    for (int q = 0; q < num_qubits; ++q)
        c.h(q);
}

} // namespace

Circuit
grover(int num_qubits, std::uint64_t marked)
{
    require(num_qubits == 2 || num_qubits == 3,
            "grover supports 2 or 3 data qubits");
    require(marked < (1ULL << num_qubits),
            "marked item out of range");

    Circuit c(num_qubits);
    for (int q = 0; q < num_qubits; ++q)
        c.h(q);
    const int iterations = num_qubits == 2 ? 1 : 2;
    for (int i = 0; i < iterations; ++i) {
        groverOracle(c, num_qubits, marked);
        groverDiffusion(c, num_qubits);
    }
    c.measureAll();
    return c;
}

Circuit
deutschJozsa(int num_qubits, bool balanced, std::uint64_t mask)
{
    require(num_qubits >= 2, "dj needs a data qubit + ancilla");
    const int data = num_qubits - 1;
    const Qubit ancilla = num_qubits - 1;
    if (balanced) {
        require(mask != 0 && mask < (1ULL << data),
                "balanced oracle needs a nonzero in-range mask");
    }

    Circuit c(num_qubits);
    c.x(ancilla).h(ancilla);
    for (Qubit q = 0; q < data; ++q)
        c.h(q);
    if (balanced) {
        // Parity-of-mask oracle (a balanced function).
        for (Qubit q = 0; q < data; ++q) {
            if (mask & (1ULL << q))
                c.cx(q, ancilla);
        }
    }
    // Constant oracle: nothing to do (f = 0).
    for (Qubit q = 0; q < data; ++q)
        c.h(q);
    for (Qubit q = 0; q < data; ++q)
        c.measure(q);
    return c;
}

Circuit
triSwap()
{
    Circuit c(3);
    c.x(0);
    c.swap(0, 1);
    c.swap(1, 2);
    c.swap(0, 1);
    // |1> travelled 0 -> 1 -> 2; expect outcome 100 (bit 2 set).
    c.measureAll();
    return c;
}

Circuit
randomCnot(const topology::CouplingGraph &machine, int num_inst,
           int min_hops, int max_hops, std::uint64_t seed)
{
    require(num_inst >= 1, "need at least one instruction");
    require(min_hops >= 1 && max_hops >= min_hops,
            "bad hop band");

    // Collect all pairs within the hop band under identity layout.
    const auto &dist = machine.hopDistances();
    std::vector<std::pair<Qubit, Qubit>> pairs;
    for (int a = 0; a < machine.numQubits(); ++a) {
        for (int b = a + 1; b < machine.numQubits(); ++b) {
            const int d = dist[static_cast<std::size_t>(a)]
                              [static_cast<std::size_t>(b)];
            if (d >= min_hops && d <= max_hops)
                pairs.emplace_back(a, b);
        }
    }
    if (pairs.empty()) {
        throw VaqError("no qubit pair within the requested hop band on " +
                       machine.name());
    }

    // "Repeated randomized CNOTs" (Section 4.2): draw a small pool
    // of pairs once, then sample instructions from the pool, so
    // communication patterns repeat and locality-aware placement has
    // something to exploit.
    Rng rng(seed);
    std::vector<std::pair<Qubit, Qubit>> pool;
    const std::size_t poolSize =
        std::min<std::size_t>(pairs.size(),
                              static_cast<std::size_t>(
                                  machine.numQubits()));
    rng.shuffle(pairs);
    pool.assign(pairs.begin(),
                pairs.begin() + static_cast<long>(poolSize));

    Circuit c(machine.numQubits());
    for (int i = 0; i < num_inst; ++i) {
        if (rng.bernoulli(0.2)) {
            c.h(static_cast<Qubit>(rng.uniformInt(
                static_cast<std::uint64_t>(machine.numQubits()))));
        } else {
            const auto &[a, b] = rng.choice(pool);
            if (rng.bernoulli(0.5))
                c.cx(a, b);
            else
                c.cx(b, a);
        }
    }
    c.measureAll();
    return c;
}

std::vector<Workload>
standardSuite(const topology::CouplingGraph &machine)
{
    std::vector<Workload> suite;
    suite.push_back({"alu", adder(4, 0b1011, 0b0110, false)});
    suite.push_back({"bv-16", bernsteinVazirani(16)});
    suite.push_back({"bv-20", bernsteinVazirani(20)});
    suite.push_back({"qft-12", qft(12)});
    suite.push_back({"qft-14", qft(14)});
    suite.push_back(
        {"rnd-SD", randomCnot(machine, 100, 1, 2, 1001)});
    suite.push_back(
        {"rnd-LD", randomCnot(machine, 100, 3, 6, 2002)});
    return suite;
}

std::vector<Workload>
tenQubitSuite()
{
    std::vector<Workload> suite;
    suite.push_back({"alu-10", adder(4, 0b1011, 0b0110, false)});
    suite.push_back({"bv-10", bernsteinVazirani(10)});
    suite.push_back({"qft-10", qft(10)});
    return suite;
}

std::vector<Workload>
q5Suite()
{
    std::vector<Workload> suite;
    suite.push_back({"bv-3", bernsteinVazirani(3)});
    suite.push_back({"bv-4", bernsteinVazirani(4)});
    suite.push_back({"TriSwap", triSwap()});
    suite.push_back({"GHZ-3", ghz(3)});
    return suite;
}

} // namespace vaq::workloads

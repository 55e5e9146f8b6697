#include "inputs.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "topology/layouts.hpp"

namespace vaqbench
{

using namespace vaq;

namespace
{

std::vector<circuit::Qubit>
randomPermutation(int n, Rng &rng)
{
    std::vector<circuit::Qubit> permutation(static_cast<std::size_t>(n));
    std::iota(permutation.begin(), permutation.end(), 0);
    rng.shuffle(permutation);
    return permutation;
}

const char *
familyName(Family family)
{
    switch (family) {
    case Family::Bv:
        return "bv";
    case Family::Qft:
        return "qft";
    case Family::Rnd:
        return "rnd";
    }
    return "?";
}

} // namespace

circuit::Circuit
seededProgram(Family family, int n, Rng &rng)
{
    switch (family) {
    case Family::Bv: {
        // n - 1 data qubits; a nonzero secret keeps the oracle
        // entangling.
        const std::uint64_t secrets = (std::uint64_t{1} << (n - 1)) - 1;
        return workloads::bernsteinVazirani(n, 1 + rng.uniformInt(secrets));
    }
    case Family::Qft:
        return workloads::qft(n).remapped(randomPermutation(n, rng), n);
    case Family::Rnd:
        return workloads::randomCnot(topology::linear(n), 5 * n, 1, 2,
                                     rng());
    }
    return circuit::Circuit(n);
}

std::vector<workloads::Workload>
seededQueue(std::uint64_t seed)
{
    constexpr int kSizes[] = {5, 8, 11};
    Rng rng(seed ^ 0x51ed2701a3b4c5d7ULL);
    std::vector<workloads::Workload> queue;
    for (const int n : kSizes) {
        for (const Family family : {Family::Bv, Family::Qft, Family::Rnd}) {
            queue.push_back(
                {std::string(familyName(family)) + "-" + std::to_string(n),
                 seededProgram(family, n, rng)});
        }
    }
    return queue;
}

std::vector<circuit::Circuit>
seededPool(std::size_t count, std::uint64_t seed)
{
    constexpr Family kFamilies[] = {Family::Bv, Family::Qft, Family::Rnd};
    Rng rng(seed ^ 0x9a3c0ffee1d2e3f4ULL);
    std::unordered_set<std::uint64_t> seen;
    std::vector<circuit::Circuit> pool;
    pool.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        const int n = 4 + static_cast<int>((k / 3) % 5);
        circuit::Circuit program = seededProgram(kFamilies[k % 3], n, rng);
        // Small bv sizes have few secrets; a relabeled copy is still a
        // bv program of the same cost, and is distinct.
        while (!seen.insert(program.contentHash()).second)
            program = program.remapped(randomPermutation(n, rng), n);
        pool.push_back(std::move(program));
    }
    return pool;
}

calibration::Snapshot
driftedSnapshot(const calibration::Snapshot &previous,
                const topology::CouplingGraph &graph, Rng &rng)
{
    constexpr int kRecalibrated = 1;
    constexpr double kJumpSigma = 0.1;
    constexpr double kT2Share = 0.2;
    constexpr double kT2Drift = 0.01;
    calibration::Snapshot next = previous;
    const auto qubits = static_cast<std::uint64_t>(graph.numQubits());
    for (int i = 0; i < kRecalibrated; ++i) {
        calibration::QubitCalibration &cal =
            next.qubit(static_cast<int>(rng.uniformInt(qubits)));
        cal.error1q = std::clamp(
            cal.error1q * rng.logNormal(0.0, kJumpSigma), 1e-4, 0.04);
        cal.readoutError = std::clamp(
            cal.readoutError * rng.logNormal(0.0, kJumpSigma), 0.005, 0.12);
        cal.t1Us = std::clamp(cal.t1Us / rng.logNormal(0.0, kJumpSigma),
                              5.0, 220.0);
        const std::size_t link = rng.uniformInt(graph.linkCount());
        next.setLinkError(link,
                          std::clamp(next.linkError(link) *
                                         rng.logNormal(0.0, kJumpSigma),
                                     0.005, 0.25));
    }
    for (int q = 0; q < graph.numQubits(); ++q) {
        if (rng.uniform() < kT2Share) {
            next.qubit(q).t2Us *=
                1.0 + rng.uniform(-kT2Drift, kT2Drift);
        }
    }
    return next;
}

circuit::Circuit
cliffordCircuit(const topology::CouplingGraph &graph, int num_gates,
                Rng &rng)
{
    constexpr int kMaxH = 3;
    const int n = graph.numQubits();
    circuit::Circuit c(n);
    int hUsed = 0;
    for (int i = 0; i < num_gates; ++i) {
        if (rng.uniformInt(10) >= 6) {
            const topology::Link &link =
                graph.links()[rng.uniformInt(graph.linkCount())];
            const bool flip = rng.uniformInt(2) == 1;
            const auto a = static_cast<circuit::Qubit>(flip ? link.b : link.a);
            const auto b = static_cast<circuit::Qubit>(flip ? link.a : link.b);
            switch (rng.uniformInt(3)) {
            case 0:
                c.cx(a, b);
                break;
            case 1:
                c.cz(a, b);
                break;
            default:
                c.swap(a, b);
                break;
            }
            continue;
        }
        const auto q = static_cast<circuit::Qubit>(
            rng.uniformInt(static_cast<std::uint64_t>(n)));
        switch (rng.uniformInt(6)) {
        case 0:
            if (hUsed < kMaxH) {
                c.h(q);
                ++hUsed;
            } else {
                c.s(q);
            }
            break;
        case 1:
            c.s(q);
            break;
        case 2:
            c.sdg(q);
            break;
        case 3:
            c.x(q);
            break;
        case 4:
            c.y(q);
            break;
        default:
            c.z(q);
            break;
        }
    }
    c.measureAll();
    return c;
}

std::uint64_t
fold(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xffU;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace vaqbench

/**
 * @file
 * Seeded input generators shared by the workloads: the extra
 * bv/qft/rnd programs, the vaqd program pool, calibration drift
 * between vaqd epochs, and machine-respecting Clifford circuits for
 * the Pauli-frame engine. Every generator is a pure function of its
 * seed, so equal seeds give equal inputs.
 */
#ifndef VAQBENCH_INPUTS_HPP
#define VAQBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "topology/coupling_graph.hpp"
#include "workloads/workloads.hpp"

namespace vaqbench
{

/**
 * Seed of the synthetic machine personalities (the repo's archive
 * seed). The benchmark seed picks programs, the starting calibration
 * cycle and the drift, not the machine itself, so quality metrics
 * stay comparable across seeds.
 */
inline constexpr std::uint64_t kMachineSeed = 7;

/** Program families the seeded generators draw from. */
enum class Family
{
    Bv,
    Qft,
    Rnd,
};

/**
 * One seeded program over `n` qubits: Bernstein-Vazirani with a
 * random nonzero secret, QFT under a random qubit relabeling, or a
 * repeated-random-CNOT program over a line of `n` qubits.
 */
vaq::circuit::Circuit seededProgram(Family family, int n, vaq::Rng &rng);

/**
 * The extra programs of the recompile queue: one bv, qft and rnd
 * program at each of 5, 8 and 11 qubits. Sizes are fixed, so every
 * seed gives a queue of the same shape and similar cost; contents
 * come from `seed`.
 */
std::vector<vaq::workloads::Workload> seededQueue(std::uint64_t seed);

/**
 * `count` distinct programs of 4 to 8 qubits for the vaqd pool.
 * Program k has family k % 3 and 4 + (k / 3) % 5 qubits, so every
 * seed gives the same family/size mix.
 */
std::vector<vaq::circuit::Circuit> seededPool(std::size_t count,
                                              std::uint64_t seed);

/** Size/family classes seededPool cycles through. */
inline constexpr std::size_t kPoolClasses = 15;

/**
 * The next calibration epoch: recalibrate one seeded qubit and one
 * seeded link (a log-normal jump in their error rates and T1), and
 * drift T2 by up to 1 % on a seeded fifth of the qubits. Untouched
 * circuits are then delta-served, T2-only ones bound-served, and
 * circuits on recalibrated hardware are bound-served or recompiled
 * depending on the jump.
 */
vaq::calibration::Snapshot
driftedSnapshot(const vaq::calibration::Snapshot &previous,
                const vaq::topology::CouplingGraph &graph,
                vaq::Rng &rng);

/**
 * Machine-respecting random Clifford circuit with `num_gates`
 * unitaries (two-qubit gates only across links), measured in full.
 * At most three H gates keep the ideal accept set under the
 * outcome-checked engines' half-the-outcome-space rule.
 */
vaq::circuit::Circuit
cliffordCircuit(const vaq::topology::CouplingGraph &graph, int num_gates,
                vaq::Rng &rng);

/** FNV-1a fold of one 64-bit value into a running fingerprint. */
std::uint64_t fold(std::uint64_t hash, std::uint64_t value);

/** Fingerprint start value. */
inline constexpr std::uint64_t kFingerprintBasis = 0xcbf29ce484222325ULL;

} // namespace vaqbench

#endif // VAQBENCH_INPUTS_HPP

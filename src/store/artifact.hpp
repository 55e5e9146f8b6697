/**
 * @file
 * Compile artifacts: the unit of the persistent content-addressed
 * store (store/artifact_store.hpp).
 *
 * One CompileArtifact is everything a batch needs to skip the
 * mapping attempts of a recompile: the routed circuit with its
 * layouts and the compile-time PST estimate, plus the artifact's
 * *calibration dependencies* — the analysis::SensitivityProfile of
 * the mapped circuit against the compile-time snapshot: the touched
 * qubits and links, how often each of their parameters is used, the
 * baseline values and the gate durations. The profile is what makes
 * reuse across calibration cycles sound: analysis::assessStaleness()
 * certifies how far the stored PST can be off under a new snapshot,
 * and a bound of exactly 0 means nothing the PST reads has changed.
 * Lint findings are not part of an artifact: they read calibration
 * the certificate does not weigh (T2, idle windows), so
 * core::compile re-runs both lint passes on a served mapping.
 *
 * Artifacts are keyed on content, never identity:
 *
 *   ArtifactKey = (circuit hash, snapshot hash, topology hash,
 *                  policy hash)
 *
 * where the policy hash covers the PolicySpec (name, MAH budget,
 * seed). The cost-model axis of the key is subsumed: which CostKind
 * a registry policy routes with is a pure function of its name, and
 * the per-link cost *values* are a pure function of (topology,
 * snapshot) — all three already key components. Doubles hash and
 * serialize by bit pattern with signed zeros normalized
 * (common/hashing.hpp), so records round-trip bit-exactly.
 *
 * The on-disk format is versioned line-oriented text ending in an
 * FNV-1a checksum line. parseArtifact() is corruption-tolerant by
 * contract: any truncation, field damage, version skew or checksum
 * mismatch yields nullopt — a cache miss, never an exception.
 */
#ifndef VAQ_STORE_ARTIFACT_HPP
#define VAQ_STORE_ARTIFACT_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sensitivity.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/mapped_circuit.hpp"
#include "core/mapper.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::store
{

/** On-disk format version (bumped on any layout change; older
 *  records parse as misses). Version 3 stores the sensitivity
 *  profile in place of the per-qubit/per-link dependency arrays;
 *  version 4 drops the mapped-lint counts, which a serve
 *  recomputes against the current snapshot. */
inline constexpr int kArtifactVersion = 4;

/** Content-address of one compile artifact. */
struct ArtifactKey
{
    std::uint64_t circuitHash = 0;  ///< circuit::Circuit::contentHash
    std::uint64_t snapshotHash = 0; ///< Snapshot::contentHash
    std::uint64_t topologyHash = 0; ///< CouplingGraph::topologyHash
    std::uint64_t policyHash = 0;   ///< policySpecHash

    /** All four axes folded into one word (index + file name). */
    std::uint64_t combined() const;

    /** The snapshot-independent axes folded together — the bucket
     *  delta reuse searches when the exact key misses. */
    std::uint64_t baseHash() const;

    /** "<16-hex-of-combined>.vaqart" */
    std::string fileName() const;

    bool operator==(const ArtifactKey &other) const = default;
};

/** Stable hash of a PolicySpec (name, mah, seed). */
std::uint64_t policySpecHash(const core::PolicySpec &spec);

/** The full content-addressed key for one compile order. */
ArtifactKey makeArtifactKey(const circuit::Circuit &logical,
                            const topology::CouplingGraph &graph,
                            const calibration::Snapshot &snapshot,
                            const core::PolicySpec &spec);

/** One stored compile result plus its calibration dependencies. */
struct CompileArtifact
{
    /** Program width / machine width of the mapping. */
    int numProgQubits = 0;
    int numPhysQubits = 0;
    /** The routed, executable circuit. */
    circuit::Circuit physical{1};
    /** prog -> phys, before / after all SWAPs. */
    std::vector<int> initialLayout;
    std::vector<int> finalLayout;
    std::size_t insertedSwaps = 0;
    /** Policy that produced the mapping. */
    std::string policyUsed;
    /** Analytic PST recorded at store time (0 = not scored). */
    double analyticPst = 0.0;

    /** The calibration dependencies: the sensitivity profile of
     *  `physical` against the compile-time snapshot (touched
     *  qubits/links ascending, usage weights, baseline values, gate
     *  durations, op count). */
    analysis::SensitivityProfile profile;

    bool operator==(const CompileArtifact &) const = default;
};

/**
 * Build the artifact for a fresh compile: extracts layouts and
 * builds the sensitivity profile of the physical circuit under
 * `snapshot` (analysis::analyzeSensitivity).
 */
CompileArtifact makeArtifact(const core::MappedCircuit &mapped,
                             double analytic_pst,
                             const topology::CouplingGraph &graph,
                             const calibration::Snapshot &snapshot);

/** Reconstruct the MappedCircuit a batch result needs. */
core::MappedCircuit toMapped(const CompileArtifact &artifact);

/** Serialize to the versioned, checksummed on-disk format. */
std::string serializeArtifact(const ArtifactKey &key,
                              const CompileArtifact &artifact);

/**
 * Parse a serialized record. Returns nullopt on any damage —
 * version skew, truncation, checksum mismatch, malformed fields,
 * out-of-range operands — never throws: a bad record is a miss.
 */
std::optional<std::pair<ArtifactKey, CompileArtifact>>
parseArtifact(const std::string &text);

} // namespace vaq::store

#endif // VAQ_STORE_ARTIFACT_HPP

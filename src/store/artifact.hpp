/**
 * @file
 * Compile artifacts: the unit of the persistent content-addressed
 * store (store/artifact_store.hpp).
 *
 * One CompileArtifact is everything a batch needs to skip a
 * recompile: the routed circuit with its layouts, the compile-time
 * PST estimate and mapped lint counts, plus the artifact's
 * *calibration dependencies* — the per-qubit and per-link
 * calibration values of exactly the qubits/links the mapped circuit
 * touches (the touched set comes from analysis::DataflowAnalysis
 * over the physical circuit). The dependencies are what make delta
 * recompilation sound: when a new calibration cycle arrives, an
 * artifact may be reused iff every value it depends on is unchanged
 * — i.e. the snapshot delta is confined to qubits/links outside the
 * circuit's touched set (reusableUnder()).
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

#include "analysis/staleness.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/mapped_circuit.hpp"
#include "core/mapper.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::store
{

/** On-disk format version (bumped on any layout change; older
 *  records parse as misses). Version 2 added the sensitivity
 *  weights to the dependency lines. */
inline constexpr int kArtifactVersion = 2;

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
    /** Mapped-circuit lint counts recorded at store time. */
    std::size_t mappedLintErrors = 0;
    std::size_t mappedLintWarnings = 0;

    /** Gate durations the compile saw (part of the dependencies —
     *  they feed both the coherence model and lint scheduling). */
    calibration::GateDurations durations;
    /** Physical qubits the mapped circuit touches, ascending. */
    std::vector<int> touchedQubits;
    /** Link indices (as graph.links()) of every two-qubit gate,
     *  ascending. */
    std::vector<std::size_t> touchedLinks;
    /** Calibration values the artifact depends on: 4 per touched
     *  qubit (t1, t2, error1q, readoutError), aligned with
     *  touchedQubits. */
    std::vector<double> qubitDeps;
    /** 2q error per touched link, aligned with touchedLinks. */
    std::vector<double> linkDeps;
    /** Sensitivity usage weights, 3 per touched qubit (1q gate
     *  count, measurement count, T1-charged busy ns), aligned with
     *  touchedQubits. Together with the deps these let
     *  assessArtifactStaleness() certify a |delta logPST| bound
     *  under a new snapshot without recompiling. */
    std::vector<double> qubitWeights;
    /** Effective 2q gates (nCX + nCZ + 3*nSWAP) per touched link,
     *  aligned with touchedLinks. */
    std::vector<double> linkWeights;
};

/**
 * Build the artifact for a fresh compile: extracts layouts, records
 * the touched qubit/link sets (DataflowAnalysis over the physical
 * circuit + link indices of its two-qubit gates) and captures the
 * snapshot values those sets depend on.
 */
CompileArtifact makeArtifact(const core::MappedCircuit &mapped,
                             double analytic_pst,
                             std::size_t mapped_lint_errors,
                             std::size_t mapped_lint_warnings,
                             const topology::CouplingGraph &graph,
                             const calibration::Snapshot &snapshot);

/** Reconstruct the MappedCircuit a batch result needs. */
core::MappedCircuit toMapped(const CompileArtifact &artifact);

/**
 * The delta-reuse rule: true iff every calibration value the
 * artifact depends on — gate durations plus the touched qubits'
 * and links' records — is unchanged in `snapshot` (values compare
 * with ==, matching the normalized content hashes). A true result
 * means the calibration delta is confined to hardware the mapped
 * circuit never uses, so mapping and PST estimate are still exact.
 */
bool reusableUnder(const CompileArtifact &artifact,
                   const calibration::Snapshot &snapshot);

/**
 * Certify how far the artifact's stored PST estimate can drift
 * under `snapshot`, from the serialized weights alone
 * (analysis/staleness.hpp — no recompile, no profile rebuild).
 * Uncertifiable (bound +inf) when durations changed, a touched
 * qubit/link fell outside the snapshot, the weights are missing
 * (pre-version-2 artifact shapes), or a parameter left its domain.
 */
analysis::StalenessAssessment
assessArtifactStaleness(const CompileArtifact &artifact,
                        const calibration::Snapshot &snapshot);

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

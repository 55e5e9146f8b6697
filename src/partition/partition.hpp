/**
 * @file
 * Machine partitioning: one strong copy versus two weak copies
 * (Section 8 of the paper).
 *
 * When a program needs at most half the machine, the operator can
 * either run two concurrent copies (more trials per unit time, but
 * both copies are stuck with whatever qubits they get) or one copy
 * on the strongest region (fewer trials, each more likely to
 * succeed). The figure of merit is STPT — Successful Trials Per unit
 * Time = sum over copies of PST / trial-latency.
 */
#ifndef VAQ_PARTITION_PARTITION_HPP
#define VAQ_PARTITION_PARTITION_HPP

#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/mapper.hpp"

namespace vaq::partition
{

/** One mapped copy plus its reliability/timing numbers. */
struct CopyReport
{
    core::MappedCircuit mapped;
    /** Physical qubits the copy occupies. */
    std::vector<topology::PhysQubit> region;
    double pst = 0.0;        ///< analytic PST of the copy
    double durationNs = 0.0; ///< trial latency (schedule makespan)
};

/** Result of the one-vs-two copies comparison. */
struct PartitionReport
{
    CopyReport single;           ///< one strong copy
    std::vector<CopyReport> dual; ///< the best two-copy split
    /** STPT in successful trials per microsecond. */
    double singleStpt = 0.0;
    double dualStpt = 0.0;

    /** True when the single strong copy wins on STPT. */
    bool singleWins() const { return singleStpt > dualStpt; }
};

/** Search knobs. */
struct PartitionOptions
{
    /**
     * Number of top-scoring candidate regions (ranked by induced
     * link strength) fully evaluated for the two-copy split. The
     * paper "explores all possible partitions"; on IBM-Q20 the
     * candidate ranking makes that tractable without changing the
     * winner in practice.
     */
    std::size_t candidateRegions = 48;
};

/**
 * Compare running one copy on the strongest region against the best
 * two-copy partition, compiling every copy with `mapper`.
 *
 * @throws VaqError when the machine cannot hold two copies.
 */
PartitionReport comparePartitioning(
    const circuit::Circuit &logical,
    const topology::CouplingGraph &graph,
    const calibration::Snapshot &snapshot,
    const core::Mapper &mapper,
    const PartitionOptions &options = {});

} // namespace vaq::partition

#endif // VAQ_PARTITION_PARTITION_HPP

#include "partition/partition.hpp"

#include <algorithm>
#include <cmath>

#include "calibration/schedule.hpp"
#include "common/error.hpp"
#include "graph/subgraph.hpp"
#include "graph/weighted_graph.hpp"
#include "sim/fault_sim.hpp"

namespace vaq::partition
{

namespace
{

/** Copies are scored with the per-operation coherence charge
 *  (DESIGN.md section 5). */
constexpr sim::CoherenceMode kCoherence = sim::CoherenceMode::PerOp;

/** Strength graph (success-probability weights) of the machine. */
graph::WeightedGraph
strengthGraph(const topology::CouplingGraph &graph,
              const calibration::Snapshot &snapshot)
{
    std::vector<graph::WeightedEdge> edges;
    edges.reserve(graph.linkCount());
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        edges.push_back(graph::WeightedEdge{
            link.a, link.b, 1.0 - snapshot.linkError(l)});
    }
    return graph::WeightedGraph(graph.numQubits(), edges);
}

/** Evaluate one mapped copy: analytic PST + trial latency. */
CopyReport
makeReport(core::MappedCircuit mapped,
           std::vector<topology::PhysQubit> region,
           const topology::CouplingGraph &graph,
           const calibration::Snapshot &snapshot)
{
    const sim::NoiseModel model(graph, snapshot, kCoherence);
    CopyReport report{std::move(mapped), std::move(region), 0.0,
                      0.0};
    report.pst = sim::analyticPst(report.mapped.physical, model);
    report.durationNs =
        calibration::scheduleAsap(report.mapped.physical,
                                  snapshot.durations)
            .durationNs;
    require(report.durationNs > 0.0, "copy has empty schedule");
    return report;
}

/** STPT in successful trials per microsecond. */
double
stptOf(const CopyReport &copy)
{
    return copy.pst / copy.durationNs * 1000.0;
}

} // namespace

PartitionReport
comparePartitioning(const circuit::Circuit &logical,
                    const topology::CouplingGraph &graph,
                    const calibration::Snapshot &snapshot,
                    const core::Mapper &mapper,
                    const PartitionOptions &options)
{
    const auto k = static_cast<std::size_t>(logical.numQubits());
    require(2 * k <= static_cast<std::size_t>(graph.numQubits()),
            "machine cannot hold two copies of the program");

    // --- One strong copy: the mapper sees the whole machine. ---
    // (Region-restricted candidates are also considered below; the
    // single copy is free to pick the strongest subset of qubits,
    // which is the entire point of Section 8.1.)
    CopyReport single = makeReport(
        mapper.map(logical, graph, snapshot), {}, graph, snapshot);
    for (int q = 0; q < logical.numQubits(); ++q)
        single.region.push_back(single.mapped.initial.phys(q));
    std::sort(single.region.begin(), single.region.end());

    // --- Best two-copy split. ---
    const graph::WeightedGraph strength =
        strengthGraph(graph, snapshot);
    const auto candidates = graph::topConnectedSubgraphs(
        strength, k, options.candidateRegions,
        graph::SubgraphScore::InducedWeight);

    PartitionReport report{std::move(single), {}, 0.0, 0.0};
    report.singleStpt = stptOf(report.single);

    double bestDual = -1.0;
    for (const std::vector<int> &regionA : candidates) {
        // Find the strongest connected k-region in the complement.
        std::vector<bool> taken(
            static_cast<std::size_t>(graph.numQubits()), false);
        for (int p : regionA)
            taken[static_cast<std::size_t>(p)] = true;
        std::vector<int> complement;
        for (int p = 0; p < graph.numQubits(); ++p) {
            if (!taken[static_cast<std::size_t>(p)])
                complement.push_back(p);
        }

        std::vector<int> regionB;
        try {
            const topology::CouplingGraph subB =
                graph.inducedSubgraph(complement);
            // Strength graph of the complement, in local ids.
            std::vector<graph::WeightedEdge> subEdges;
            for (std::size_t l = 0; l < subB.linkCount(); ++l) {
                const topology::Link &link = subB.links()[l];
                subEdges.push_back(graph::WeightedEdge{
                    link.a, link.b,
                    1.0 - snapshot.linkError(
                              graph,
                              complement[static_cast<std::size_t>(
                                  link.a)],
                              complement[static_cast<std::size_t>(
                                  link.b)])});
            }
            const graph::WeightedGraph subStrength(
                subB.numQubits(), subEdges);
            const std::vector<int> local =
                graph::bestConnectedSubgraph(
                    subStrength, k,
                    graph::SubgraphScore::InducedWeight);
            for (int p : local)
                regionB.push_back(
                    complement[static_cast<std::size_t>(p)]);
        } catch (const VaqError &) {
            continue; // complement cannot host a connected copy
        }

        CopyReport copyA = makeReport(
            mapper.mapInRegion(logical, graph, snapshot, regionA),
            regionA, graph, snapshot);
        CopyReport copyB = makeReport(
            mapper.mapInRegion(logical, graph, snapshot, regionB),
            regionB, graph, snapshot);

        // Any region good enough for a dual copy is also a valid
        // single-copy placement; keep the best seen.
        for (const CopyReport *copy : {&copyA, &copyB}) {
            if (copy->pst > report.single.pst)
                report.single = *copy;
        }

        const double dual = stptOf(copyA) + stptOf(copyB);
        if (dual > bestDual) {
            bestDual = dual;
            report.dual.clear();
            report.dual.push_back(std::move(copyA));
            report.dual.push_back(std::move(copyB));
        }
    }

    require(!report.dual.empty(),
            "no feasible two-copy partition found");
    report.singleStpt = stptOf(report.single);
    report.dualStpt = bestDual;
    return report;
}

} // namespace vaq::partition

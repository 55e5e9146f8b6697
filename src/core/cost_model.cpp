#include "core/cost_model.hpp"

#include "common/error.hpp"

namespace vaq::core
{

SwapCountCost::SwapCountCost(const topology::CouplingGraph &graph)
    : _graph(graph)
{
}

double
SwapCountCost::swapCost(topology::PhysQubit a,
                        topology::PhysQubit b) const
{
    require(_graph.coupled(a, b), "swap on uncoupled pair");
    return 1.0;
}

double
SwapCountCost::cnotCost(topology::PhysQubit a,
                        topology::PhysQubit b) const
{
    require(_graph.coupled(a, b), "cnot on uncoupled pair");
    return 1.0;
}

ReliabilityCost::ReliabilityCost(
    const topology::CouplingGraph &graph,
    const calibration::Snapshot &snapshot, double floor)
    : _graph(graph)
{
    require(snapshot.numLinks() == graph.linkCount(),
            "snapshot does not match machine shape");
    require(floor > 0.0 && floor < 1.0, "bad error floor");
    _cnotCostPerLink.reserve(graph.linkCount());
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        _cnotCostPerLink.push_back(
            linkReliabilityCost(snapshot.linkError(l), floor));
    }
}

double
ReliabilityCost::swapCost(topology::PhysQubit a,
                          topology::PhysQubit b) const
{
    return 3.0 * cnotCost(a, b);
}

double
ReliabilityCost::cnotCost(topology::PhysQubit a,
                          topology::PhysQubit b) const
{
    return _cnotCostPerLink[_graph.linkIndex(a, b)];
}

std::unique_ptr<CostModel>
makeCostModel(CostKind kind, const topology::CouplingGraph &graph,
              const calibration::Snapshot &snapshot)
{
    if (kind == CostKind::SwapCount)
        return std::make_unique<SwapCountCost>(graph);
    return std::make_unique<ReliabilityCost>(graph, snapshot);
}

} // namespace vaq::core

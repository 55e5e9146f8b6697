#include "core/router.hpp"

#include <algorithm>

#include "circuit/layering.hpp"
#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "core/astar_router.hpp"

namespace vaq::core
{

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

Router::Router(const topology::CouplingGraph &graph,
               const CostModel &cost, const RouterOptions &options)
    : _graph(graph),
      _cost(cost),
      _options(options),
      _planner(graph, cost, options.mah, options.planCache)
{
}

void
Router::emitMapped(const Gate &gate, const Layout &layout,
                   Circuit &physical)
{
    Gate mapped = gate;
    if (gate.kind != GateKind::BARRIER) {
        mapped.q0 = layout.phys(gate.q0);
        if (gate.isTwoQubit())
            mapped.q1 = layout.phys(gate.q1);
    }
    physical.append(mapped);
}

RouteResult
Router::route(const Circuit &logical, const Layout &initial) const
{
    require(initial.isComplete(),
            "routing needs a complete initial layout");
    require(initial.numProg() == logical.numQubits(),
            "layout width does not match circuit");
    require(initial.numPhys() == _graph.numQubits(),
            "layout does not match machine");

    RouteResult result(logical.numQubits(), _graph.numQubits());
    Layout layout = initial;

    if (_options.strategy == RouteStrategy::LayerAstar)
        routeLayerAstar(logical, result, layout);
    else
        routePerGate(logical, result, layout);

    result.final = layout;
    return result;
}

void
Router::routePerGate(const Circuit &logical, RouteResult &result,
                     Layout &layout) const
{
    for (const Gate &gate : logical.gates()) {
        checkCancellation("router.per-gate");
        if (gate.isTwoQubit()) {
            const topology::PhysQubit pa = layout.phys(gate.q0);
            const topology::PhysQubit pb = layout.phys(gate.q1);
            // Plan even for adjacent pairs when link costs are
            // non-uniform: relocating off a weak link can beat
            // executing on it.
            if (!_graph.coupled(pa, pb) ||
                (_options.allowRelocation &&
                 _cost.relocationCanHelp())) {
                const MovementPlan plan = _planner.plan(pa, pb);
                for (const auto &[u, v] : plan.swaps) {
                    result.physical.swap(u, v);
                    layout.applySwap(u, v);
                    ++result.insertedSwaps;
                }
            }
        }
        emitMapped(gate, layout, result.physical);
    }
}

void
Router::routeLayerAstar(const Circuit &logical, RouteResult &result,
                        Layout &layout) const
{
    const std::vector<circuit::Layer> layers =
        circuit::layerize(logical);
    const auto &gates = logical.gates();

    for (const circuit::Layer &layer : layers) {
        checkCancellation("router.layer");
        // Collect the layer's two-qubit gates that actually need
        // connectivity work.
        std::vector<ProgPair> pairs;
        for (std::size_t idx : layer) {
            const Gate &g = gates[idx];
            if (g.isTwoQubit())
                pairs.emplace_back(g.q0, g.q1);
        }

        // Gates the budget fallback had to emit ahead of the layer.
        std::vector<std::size_t> emitted;
        if (!pairs.empty()) {
            bool needsWork = _options.allowRelocation &&
                             _cost.relocationCanHelp();
            if (!needsWork) {
                for (const auto &[qa, qb] : pairs) {
                    if (!_graph.coupled(layout.phys(qa),
                                        layout.phys(qb))) {
                        needsWork = true;
                        break;
                    }
                }
            }
            if (needsWork) {
                const auto swaps = planLayerSwaps(
                    _graph, _cost, _planner, layout, pairs,
                    _options.astarNodeCap);
                if (swaps.has_value()) {
                    for (const auto &[u, v] : *swaps) {
                        result.physical.swap(u, v);
                        layout.applySwap(u, v);
                        ++result.insertedSwaps;
                    }
                } else {
                    emitted =
                        routePairsInTurn(logical, layer, result, layout);
                }
            }
        }

        for (std::size_t idx : layer) {
            if (std::find(emitted.begin(), emitted.end(), idx) ==
                emitted.end())
                emitMapped(gates[idx], layout, result.physical);
        }
    }
}

std::vector<std::size_t>
Router::routePairsInTurn(const Circuit &logical,
                         const circuit::Layer &layer,
                         RouteResult &result, Layout &layout) const
{
    // Budget exhausted: route the layer's pairs one at a time. A
    // later pair's swaps may separate a pair routed before it, so
    // that pair's gate is emitted just before the separating swap
    // (a layer's gates act on disjoint qubits, so their order
    // within the layer is free).
    const auto &gates = logical.gates();
    const bool relocate =
        _options.allowRelocation && _cost.relocationCanHelp();
    std::vector<std::size_t> routed;
    std::vector<std::size_t> emitted;
    for (std::size_t idx : layer) {
        const Gate &gate = gates[idx];
        if (!gate.isTwoQubit())
            continue;
        const topology::PhysQubit pa = layout.phys(gate.q0);
        const topology::PhysQubit pb = layout.phys(gate.q1);
        const MovementPlan plan = _graph.coupled(pa, pb) && !relocate
                                      ? MovementPlan{}
                                      : _planner.plan(pa, pb);
        for (const auto &[u, v] : plan.swaps) {
            const auto swapped = [u, v](topology::PhysQubit p) {
                return p == u ? v : p == v ? u : p;
            };
            for (const std::size_t prior : routed) {
                const Gate &g = gates[prior];
                if (_graph.coupled(swapped(layout.phys(g.q0)),
                                   swapped(layout.phys(g.q1))) ||
                    std::find(emitted.begin(), emitted.end(), prior) !=
                        emitted.end())
                    continue;
                emitMapped(g, layout, result.physical);
                emitted.push_back(prior);
            }
            result.physical.swap(u, v);
            layout.applySwap(u, v);
            ++result.insertedSwaps;
        }
        routed.push_back(idx);
    }
    return emitted;
}

} // namespace vaq::core

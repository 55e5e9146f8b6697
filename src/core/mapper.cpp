#include "core/mapper.hpp"

#include <map>
#include <sstream>

#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"

namespace vaq::core
{

using circuit::Circuit;

Mapper::Mapper(std::string name,
               std::unique_ptr<Allocator> allocator,
               CostKind cost_kind, RouterOptions router_options)
    : _name(std::move(name))
{
    require(allocator != nullptr, "mapper needs an allocator");
    Placement placement;
    placement.allocator = std::move(allocator);
    placement.routes.push_back({cost_kind, router_options, _name});
    _placements.push_back(std::move(placement));
}

Mapper::Mapper(std::string name, std::vector<Placement> placements)
    : _name(std::move(name)), _placements(std::move(placements))
{
    require(!_placements.empty(), "mapper needs a placement");
    for (const Placement &placement : _placements) {
        require(placement.allocator != nullptr,
                "placement needs an allocator");
        require(!placement.routes.empty(),
                "placement needs a route");
    }
}

std::size_t
Mapper::routeCount() const
{
    std::size_t count = 0;
    for (const Placement &placement : _placements)
        count += placement.routes.size();
    return count;
}

MappedCircuit
Mapper::map(const Circuit &logical,
            const topology::CouplingGraph &graph,
            const calibration::Snapshot &snapshot,
            const CompileOptions &options) const
{
    return map(logical, CalibrationContext(graph, snapshot), options);
}

MappedCircuit
Mapper::map(const Circuit &logical, const CalibrationContext &context,
            const CompileOptions &options) const
{
    if (const CalibrationContext *region = context.region()) {
        const int regionQubits = region->graph().numQubits();
        if (regionQubits < logical.numQubits()) {
            throw CalibrationError(
                "healthy region (" + std::to_string(regionQubits) +
                " qubits) smaller than the program (" +
                std::to_string(logical.numQubits()) + ")");
        }
        const MappedCircuit inner = map(logical, *region, options);

        // Translate back to machine qubit ids.
        const std::vector<topology::PhysQubit> &toMachine =
            context.regionQubits();
        const int machineQubits = context.graph().numQubits();
        MappedCircuit mapped(logical.numQubits(), machineQubits);
        mapped.physical = inner.physical.remapped(toMachine, machineQubits);
        for (int q = 0; q < logical.numQubits(); ++q) {
            mapped.initial.assign(q, toMachine[static_cast<std::size_t>(
                                         inner.initial.phys(q))]);
            mapped.final.assign(q, toMachine[static_cast<std::size_t>(
                                       inner.final.phys(q))]);
        }
        mapped.insertedSwaps = inner.insertedSwaps;
        mapped.policyName = _name + "@region";
        return mapped;
    }
    context.requireTables();
    const topology::CouplingGraph &graph = context.graph();
    require(logical.numQubits() <= graph.numQubits(),
            "program needs more qubits than the machine has");
    require(graph.isConnected(),
            "machine coupling graph must be connected");

    const bool telemetry =
        options.telemetryEnabled && obs::enabled();
    obs::Span compileSpan("mapper.compile", telemetry);
    obs::ScopedTimer compileTimer("mapper.compile.seconds",
                                  telemetry);

    // Score each route with the compile-time reliability estimate
    // and keep the winner. Error rates are known at compile time
    // (the premise of the whole paper), so the portfolio selection
    // is itself a variation-aware step.
    const sim::NoiseModel model(graph, context.snapshot(),
                                sim::CoherenceMode::PerOp);
    MappedCircuit best(logical.numQubits(), graph.numQubits());
    double bestScore = -1.0;
    const Route *winner = nullptr;
    for (const Placement &placement : _placements) {
        Layout initial(logical.numQubits(), graph.numQubits());
        {
            obs::Span span("mapper.allocate", telemetry);
            obs::ScopedTimer timer("mapper.allocate.seconds",
                                   telemetry);
            initial = placement.allocator->allocate(logical, context);
        }
        for (const Route &route : placement.routes) {
            checkCancellation("mapper.portfolio");
            // Every compile against this context shares the route
            // table for (cost kind, MAH) instead of re-searching
            // each movement plan.
            const PlanCache &plans =
                context.plans(route.costKind, route.routerOptions.mah);
            RouterOptions routerOptions = route.routerOptions;
            routerOptions.planCache = &plans;
            RouteResult routed(logical.numQubits(),
                               graph.numQubits());
            {
                obs::Span span("mapper.route", telemetry);
                obs::ScopedTimer timer("mapper.route.seconds",
                                       telemetry);
                const Router router(graph, plans.cost(), routerOptions);
                routed = router.route(logical, initial);
            }
            double score = 0.0;
            {
                obs::Span span("mapper.score", telemetry);
                obs::ScopedTimer timer("mapper.score.seconds",
                                       telemetry);
                score = sim::analyticPst(routed.physical, model);
            }
            if (score > bestScore) {
                bestScore = score;
                best.physical = std::move(routed.physical);
                best.initial = initial;
                best.final = routed.final;
                best.insertedSwaps = routed.insertedSwaps;
                winner = &route;
            }
        }
    }
    best.policyName = _name;
    if (telemetry && winner != nullptr) {
        obs::count("mapper.portfolio.winner{policy=\"" + _name +
                   "\",config=\"" + winner->label + "\"}");
        obs::count("mapper.compiles");
    }
    // Routing grows the gate vector by doubling; results outlive
    // the compile (batches, the store), so keep only the gates.
    best.physical.shrinkToFit();
    return best;
}

MappedCircuit
Mapper::mapInRegion(
    const Circuit &logical, const topology::CouplingGraph &graph,
    const calibration::Snapshot &snapshot,
    const std::vector<topology::PhysQubit> &region,
    const CompileOptions &options) const
{
    require(region.size() >=
                static_cast<std::size_t>(logical.numQubits()),
            "region smaller than the program");
    return map(logical, CalibrationContext(graph, snapshot, region),
               options);
}

namespace
{

/** One route: `cost` movement planned by `strategy` within `mah`. */
Route
route(std::string label, CostKind cost, RouteStrategy strategy,
      int mah = kUnlimitedHops)
{
    RouterOptions options;
    options.mah = mah;
    options.strategy = strategy;
    return {cost, options, std::move(label)};
}

/**
 * The VQM placement: movement-only variation awareness. Allocation
 * stays the baseline's variation-blind locality embedding — placing
 * qubits by error rates is VQA's job (Section 6), so Fig. 12's
 * "VQM standalone" is exactly reliability-aware routing on the
 * baseline layout.
 */
Placement
vqmPlacement(int mah)
{
    return {std::make_unique<LocalityAllocator>(),
            {// Per-gate reliability routing (Algorithm 1 with
             // single-mover planning).
             route("vqm-pergate", CostKind::Reliability,
                   RouteStrategy::PerGate, mah),
             // Joint per-layer A* (Algorithm 1 step 5).
             route("vqm-astar", CostKind::Reliability,
                   RouteStrategy::LayerAstar, mah),
             // No-variation fallback (Section 5.3: with uniform
             // error rates VQM is "identical as [the] baseline").
             route("baseline", CostKind::SwapCount,
                   RouteStrategy::LayerAstar)}};
}

/** Registry builders, one per canonical policy name. */

Mapper
buildRandomized(const PolicySpec &spec)
{
    // The IBM-native stand-in routes per gate: the production
    // compiler of the time did not do layer-joint optimization.
    RouterOptions options;
    options.strategy = RouteStrategy::PerGate;
    return Mapper("ibm-native",
                  std::make_unique<RandomAllocator>(spec.seed),
                  CostKind::SwapCount, options);
}

Mapper
buildBaseline(const PolicySpec &)
{
    RouterOptions options;
    options.strategy = RouteStrategy::LayerAstar;
    return Mapper("baseline", std::make_unique<LocalityAllocator>(),
                  CostKind::SwapCount, options);
}

Mapper
buildVqm(const PolicySpec &spec)
{
    const std::string name =
        spec.mah == kUnlimitedHops
            ? "vqm"
            : "vqm-mah" + std::to_string(spec.mah);
    std::vector<Placement> placements;
    placements.push_back(vqmPlacement(spec.mah));
    return Mapper(name, std::move(placements));
}

Mapper
buildVqa(const PolicySpec &)
{
    std::vector<Placement> placements;
    placements.push_back({std::make_unique<StrengthAllocator>(
                              graph::SubgraphScore::InducedWeight),
                          {route("vqa-strength", CostKind::SwapCount,
                                 RouteStrategy::LayerAstar)}});
    placements.push_back({std::make_unique<LocalityAllocator>(),
                          {route("baseline", CostKind::SwapCount,
                                 RouteStrategy::LayerAstar)}});
    return Mapper("vqa", std::move(placements));
}

Mapper
buildVqaVqm(const PolicySpec &spec)
{
    const int mah = spec.mah;
    const auto reliable = [mah](std::string label,
                                RouteStrategy strategy) {
        return route(std::move(label), CostKind::Reliability,
                     strategy, mah);
    };
    // VQA placements (strongest-subgraph allocation, plus the
    // strength-weighted locality embedding of Algorithm 1 step 4)
    // on top of the VQM placement, so VQA+VQM is never worse than
    // VQM (Section 6.3 reports exactly that ordering).
    std::vector<Placement> placements;
    placements.push_back(
        {std::make_unique<StrengthAllocator>(
             graph::SubgraphScore::InducedWeight),
         {reliable("vqa-induced-pergate", RouteStrategy::PerGate),
          reliable("vqa-induced-astar", RouteStrategy::LayerAstar)}});
    placements.push_back(
        {std::make_unique<StrengthAllocator>(
             graph::SubgraphScore::FullStrength),
         {reliable("vqa-strength-pergate", RouteStrategy::PerGate)}});
    // Qubit-aware variant: readout/coherence quality feeds the
    // subgraph choice (matters on machines with skewed readout,
    // e.g. the Table 3 Tenerife profile).
    placements.push_back(
        {std::make_unique<StrengthAllocator>(
             graph::SubgraphScore::InducedWeight, 0, true),
         {reliable("vqa-qubit-aware", RouteStrategy::PerGate)}});
    placements.push_back(
        {std::make_unique<LocalityAllocator>(CostKind::Reliability),
         {reliable("vqa-rel-locality", RouteStrategy::PerGate)}});
    placements.push_back(vqmPlacement(mah));

    const std::string name =
        mah == kUnlimitedHops
            ? "vqa+vqm"
            : "vqa+vqm-mah" + std::to_string(mah);
    return Mapper(name, std::move(placements));
}

using PolicyBuilder = Mapper (*)(const PolicySpec &);

/** Canonical name -> builder. Aliases resolve before lookup. */
const std::map<std::string, PolicyBuilder> &
policyRegistry()
{
    static const std::map<std::string, PolicyBuilder> registry = {
        {"baseline", &buildBaseline}, {"vqm", &buildVqm},
        {"vqa", &buildVqa},           {"vqa+vqm", &buildVqaVqm},
        {"random", &buildRandomized},
    };
    return registry;
}

std::string
canonicalPolicyName(const std::string &name)
{
    if (name == "ibm-native" || name == "native")
        return "random";
    return name;
}

} // namespace

Mapper
makeMapper(const PolicySpec &spec)
{
    const auto &registry = policyRegistry();
    const auto it = registry.find(canonicalPolicyName(spec.name));
    if (it == registry.end()) {
        std::ostringstream message;
        message << "unknown policy '" << spec.name
                << "' (known policies:";
        for (const auto &[name, builder] : registry)
            message << " " << name;
        message << ")";
        throw VaqError(message.str());
    }
    return it->second(spec);
}

} // namespace vaq::core

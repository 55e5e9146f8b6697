#include "core/mapper.hpp"

#include <functional>
#include <map>
#include <sstream>

#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "core/compile_cache.hpp"
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
    PolicyConfig config;
    config.allocator = std::move(allocator);
    config.costKind = cost_kind;
    config.routerOptions = router_options;
    config.label = _name;
    _configs.push_back(std::move(config));
}

Mapper::Mapper(std::string name, std::vector<PolicyConfig> configs)
    : _name(std::move(name)), _configs(std::move(configs))
{
    require(!_configs.empty(), "mapper needs a configuration");
    for (const PolicyConfig &config : _configs) {
        require(config.allocator != nullptr,
                "configuration needs an allocator");
    }
}

MappedCircuit
Mapper::mapWithConfig(const PolicyConfig &config,
                      const Circuit &logical,
                      const topology::CouplingGraph &graph,
                      const calibration::Snapshot &snapshot,
                      bool telemetry) const
{
    Layout initial(logical.numQubits(), graph.numQubits());
    {
        obs::Span span("mapper.allocate", telemetry);
        obs::ScopedTimer timer("mapper.allocate.seconds",
                               telemetry);
        initial =
            config.allocator->allocate(logical, graph, snapshot);
    }
    const std::unique_ptr<CostModel> cost =
        makeCostModel(config.costKind, graph, snapshot);
    RouterOptions options = config.routerOptions;
    if (pathCacheEnabled() && !options.planCache) {
        // Hand the router the process-wide route table for this
        // (machine, calibration, cost, MAH) tuple; concurrent
        // compiles against the same snapshot then share every
        // movement plan instead of re-searching it.
        options.planCache = sharedPlanCache(
            graph, snapshot, config.costKind, options.mah);
    }
    RouteResult routed(logical.numQubits(), graph.numQubits());
    {
        obs::Span span("mapper.route", telemetry);
        obs::ScopedTimer timer("mapper.route.seconds", telemetry);
        const Router router(graph, *cost, options);
        routed = router.route(logical, initial);
    }

    MappedCircuit mapped(logical.numQubits(), graph.numQubits());
    mapped.physical = std::move(routed.physical);
    mapped.initial = initial;
    mapped.final = routed.final;
    mapped.insertedSwaps = routed.insertedSwaps;
    mapped.policyName = _name;
    return mapped;
}

MappedCircuit
Mapper::map(const Circuit &logical,
            const topology::CouplingGraph &graph,
            const calibration::Snapshot &snapshot,
            const CompileOptions &options) const
{
    require(logical.numQubits() <= graph.numQubits(),
            "program needs more qubits than the machine has");
    require(graph.isConnected(),
            "machine coupling graph must be connected");

    const PathCacheScope cacheScope(options.cacheEnabled);
    const bool telemetry =
        options.telemetryEnabled && obs::enabled();
    obs::Span compileSpan("mapper.compile", telemetry);
    obs::ScopedTimer compileTimer("mapper.compile.seconds",
                                  telemetry);

    // Score each configuration with the compile-time reliability
    // estimate and keep the winner. Error rates are known at
    // compile time (the premise of the whole paper), so the
    // portfolio selection is itself a variation-aware step.
    const sim::NoiseModel model(graph, snapshot,
                                sim::CoherenceMode::PerOp);
    MappedCircuit best(logical.numQubits(), graph.numQubits());
    double bestScore = -1.0;
    const PolicyConfig *winner = nullptr;
    for (const PolicyConfig &config : _configs) {
        checkCancellation("mapper.portfolio");
        MappedCircuit candidate = mapWithConfig(
            config, logical, graph, snapshot, telemetry);
        double score = 0.0;
        {
            obs::Span span("mapper.score", telemetry);
            obs::ScopedTimer timer("mapper.score.seconds",
                                   telemetry);
            score = sim::analyticPst(candidate.physical, model);
        }
        if (score > bestScore) {
            bestScore = score;
            best = std::move(candidate);
            winner = &config;
        }
    }
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

    // Build the region-restricted machine and its calibration view.
    const topology::CouplingGraph sub =
        graph.inducedSubgraph(region);
    require(sub.isConnected(), "partition region is disconnected");

    calibration::Snapshot subSnapshot(sub);
    subSnapshot.durations = snapshot.durations;
    for (std::size_t i = 0; i < region.size(); ++i) {
        subSnapshot.qubit(static_cast<int>(i)) =
            snapshot.qubit(region[i]);
    }
    for (std::size_t l = 0; l < sub.linkCount(); ++l) {
        const topology::Link &link = sub.links()[l];
        subSnapshot.setLinkError(
            l, snapshot.linkError(
                   graph,
                   region[static_cast<std::size_t>(link.a)],
                   region[static_cast<std::size_t>(link.b)]));
    }

    const MappedCircuit inner =
        map(logical, sub, subSnapshot, options);

    // Translate back to full-machine qubit ids.
    MappedCircuit mapped(logical.numQubits(), graph.numQubits());
    std::vector<int> toFull(region.begin(), region.end());
    mapped.physical =
        inner.physical.remapped(toFull, graph.numQubits());
    for (int q = 0; q < logical.numQubits(); ++q) {
        mapped.initial.assign(
            q, region[static_cast<std::size_t>(
                   inner.initial.phys(q))]);
        mapped.final.assign(
            q, region[static_cast<std::size_t>(
                   inner.final.phys(q))]);
    }
    mapped.insertedSwaps = inner.insertedSwaps;
    mapped.policyName = _name + "@region";
    return mapped;
}

namespace
{

/** Baseline configuration (shared no-variation fallback). */
PolicyConfig
baselineConfig()
{
    PolicyConfig config;
    config.allocator = std::make_unique<LocalityAllocator>();
    config.costKind = CostKind::SwapCount;
    config.routerOptions.strategy = RouteStrategy::LayerAstar;
    config.label = "baseline";
    return config;
}

/**
 * The VQM portfolio: movement-only variation awareness. Allocation
 * stays the baseline's variation-blind locality embedding — placing
 * qubits by error rates is VQA's job (Section 6), so Fig. 12's
 * "VQM standalone" is exactly reliability-aware routing on the
 * baseline layout.
 */
std::vector<PolicyConfig>
vqmConfigs(int mah)
{
    std::vector<PolicyConfig> configs;

    // Baseline allocation + per-gate reliability routing
    // (Algorithm 1 with single-mover planning).
    {
        PolicyConfig c;
        c.allocator = std::make_unique<LocalityAllocator>();
        c.costKind = CostKind::Reliability;
        c.routerOptions.mah = mah;
        c.routerOptions.strategy = RouteStrategy::PerGate;
        c.label = "vqm-pergate";
        configs.push_back(std::move(c));
    }
    // Same allocation, joint per-layer A* (Algorithm 1 step 5).
    {
        PolicyConfig c;
        c.allocator = std::make_unique<LocalityAllocator>();
        c.costKind = CostKind::Reliability;
        c.routerOptions.mah = mah;
        c.routerOptions.strategy = RouteStrategy::LayerAstar;
        c.label = "vqm-astar";
        configs.push_back(std::move(c));
    }
    // No-variation fallback (Section 5.3: with uniform error rates
    // VQM is "identical as [the] baseline").
    configs.push_back(baselineConfig());
    return configs;
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
    return Mapper(name, vqmConfigs(spec.mah));
}

Mapper
buildVqa(const PolicySpec &)
{
    std::vector<PolicyConfig> configs;
    {
        PolicyConfig c;
        c.allocator = std::make_unique<StrengthAllocator>(
            graph::SubgraphScore::InducedWeight);
        c.costKind = CostKind::SwapCount;
        c.routerOptions.strategy = RouteStrategy::LayerAstar;
        c.label = "vqa-strength";
        configs.push_back(std::move(c));
    }
    configs.push_back(baselineConfig());
    return Mapper("vqa", std::move(configs));
}

Mapper
buildVqaVqm(const PolicySpec &spec)
{
    const int mah = spec.mah;
    // VQA allocation variants (strongest-subgraph placement, plus
    // the strength-weighted locality embedding of Algorithm 1 step
    // 4) on top of the full VQM portfolio, so VQA+VQM is never
    // worse than VQM (Section 6.3 reports exactly that ordering).
    std::vector<PolicyConfig> configs;
    for (graph::SubgraphScore score :
         {graph::SubgraphScore::InducedWeight,
          graph::SubgraphScore::FullStrength}) {
        PolicyConfig c;
        c.allocator = std::make_unique<StrengthAllocator>(score);
        c.costKind = CostKind::Reliability;
        c.routerOptions.mah = mah;
        c.routerOptions.strategy = RouteStrategy::PerGate;
        c.label = score == graph::SubgraphScore::InducedWeight
                      ? "vqa-induced-pergate"
                      : "vqa-strength-pergate";
        configs.push_back(std::move(c));
    }
    {
        PolicyConfig c;
        c.allocator = std::make_unique<StrengthAllocator>(
            graph::SubgraphScore::InducedWeight);
        c.costKind = CostKind::Reliability;
        c.routerOptions.mah = mah;
        c.routerOptions.strategy = RouteStrategy::LayerAstar;
        c.label = "vqa-induced-astar";
        configs.push_back(std::move(c));
    }
    // Qubit-aware variant: readout/coherence quality feeds the
    // subgraph choice (matters on machines with skewed readout,
    // e.g. the Table 3 Tenerife profile).
    {
        PolicyConfig c;
        c.allocator = std::make_unique<StrengthAllocator>(
            graph::SubgraphScore::InducedWeight, 0, true);
        c.costKind = CostKind::Reliability;
        c.routerOptions.mah = mah;
        c.routerOptions.strategy = RouteStrategy::PerGate;
        c.label = "vqa-qubit-aware";
        configs.push_back(std::move(c));
    }
    {
        PolicyConfig c;
        c.allocator = std::make_unique<LocalityAllocator>(
            CostKind::Reliability);
        c.costKind = CostKind::Reliability;
        c.routerOptions.mah = mah;
        c.routerOptions.strategy = RouteStrategy::PerGate;
        c.label = "vqa-rel-locality";
        configs.push_back(std::move(c));
    }
    for (PolicyConfig &c : vqmConfigs(mah))
        configs.push_back(std::move(c));

    const std::string name =
        mah == kUnlimitedHops
            ? "vqa+vqm"
            : "vqa+vqm-mah" + std::to_string(mah);
    return Mapper(name, std::move(configs));
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

std::vector<std::string>
policyNames()
{
    std::vector<std::string> names;
    for (const auto &[name, builder] : policyRegistry())
        names.push_back(name);
    return names;
}

} // namespace vaq::core

/**
 * @file
 * Ablation: per-gate movement planning vs joint per-layer A*
 * search (DESIGN.md §5), for both cost models. Shows why the
 * production policies run a portfolio: neither strategy dominates
 * across workloads.
 */
#include "bench_util.hpp"

#include "common/table.hpp"
#include "workloads/workloads.hpp"

namespace
{

vaq::core::Mapper
singleConfig(const char *name, vaq::core::CostKind kind,
             vaq::core::RouteStrategy strategy)
{
    using namespace vaq::core;
    RouterOptions options;
    options.strategy = strategy;
    auto allocator =
        kind == CostKind::SwapCount
            ? std::make_unique<LocalityAllocator>()
            : std::make_unique<LocalityAllocator>(
                  CostKind::Reliability);
    return Mapper(name, std::move(allocator), kind, options);
}

} // namespace

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Ablation", "Router Strategy: Per-Gate vs Layer A*",
        "Inserted SWAPs and analytic PST per strategy and cost "
        "model (no portfolio).");

    bench::Q20Environment env;
    const sim::NoiseModel model(env.machine, env.averaged);

    struct Config
    {
        const char *label;
        core::CostKind kind;
        core::RouteStrategy strategy;
    };
    const Config configs[] = {
        {"uniform/per-gate", core::CostKind::SwapCount,
         core::RouteStrategy::PerGate},
        {"uniform/layer-A*", core::CostKind::SwapCount,
         core::RouteStrategy::LayerAstar},
        {"reliab./per-gate", core::CostKind::Reliability,
         core::RouteStrategy::PerGate},
        {"reliab./layer-A*", core::CostKind::Reliability,
         core::RouteStrategy::LayerAstar},
    };

    TextTable table({"Benchmark", "uniform/per-gate",
                     "uniform/layer-A*", "reliab./per-gate",
                     "reliab./layer-A*"});
    for (const auto &w : workloads::standardSuite(env.machine)) {
        std::vector<std::string> row{w.name};
        for (const Config &config : configs) {
            const auto mapper = singleConfig(
                config.label, config.kind, config.strategy);
            const auto mapped =
                mapper.map(w.circuit, env.machine, env.averaged);
            const double pst =
                sim::analyticPst(mapped.physical, model);
            row.push_back(
                formatDouble(pst, 6) + "/" +
                std::to_string(mapped.insertedSwaps) + "sw");
        }
        table.addRow(row);
    }
    std::cout << table.render() << "\n";
    std::cout << "Observation: layer-A* wins on shallow parallel "
                 "circuits, per-gate is more robust\non deep "
                 "serial ones -- motivating the portfolio behind "
                 "the vqm policy.\n";
    return 0;
}

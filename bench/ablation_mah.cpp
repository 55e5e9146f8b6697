/**
 * @file
 * Ablation: the Maximum-Additional-Hops (MAH) budget of VQM
 * (DESIGN.md §5). Sweeps MAH = 0, 1, 2, 4, 8, unlimited for every
 * benchmark and reports relative PST and inserted SWAPs. The paper
 * uses MAH = 4 and reports it "has similar improvement to an
 * unconstrained policy".
 */
#include "bench_util.hpp"

#include <utility>

#include "common/table.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Ablation", "MAH (Maximum Additional Hops) Sweep",
        "Relative PST (vs baseline) and inserted SWAPs of VQM "
        "under different hop budgets.");

    bench::Q20Environment env;
    const int budgets[] = {0, 1, 2, 4, 8, core::kUnlimitedHops};

    // One compiled candidate per (benchmark, policy): the baseline
    // followed by each hop budget, all evaluated through one batched
    // trial engine instead of a per-candidate serial loop.
    std::vector<core::Mapper> policies;
    policies.push_back(core::makeMapper({.name = "baseline"}));
    for (int mah : budgets)
        policies.push_back(
            core::makeMapper({.name = "vqm", .mah = mah}));
    const std::size_t numPolicies = policies.size();

    const auto suite = workloads::standardSuite(env.machine);
    std::vector<circuit::Circuit> physicals;
    std::vector<int> swaps;
    physicals.reserve(suite.size() * numPolicies);
    swaps.reserve(suite.size() * numPolicies);
    for (const auto &w : suite) {
        for (const core::Mapper &policy : policies) {
            auto mapped =
                policy.map(w.circuit, env.machine, env.averaged);
            swaps.push_back(mapped.insertedSwaps);
            physicals.push_back(std::move(mapped.physical));
        }
    }
    const auto results = bench::batchPstOf(
        physicals, env.machine, env.averaged, 50'000);

    TextTable table({"Benchmark", "MAH=0", "MAH=1", "MAH=2",
                     "MAH=4", "MAH=8", "unlimited"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const double base =
            results[i * numPolicies].analyticPst;
        std::vector<std::string> row{suite[i].name};
        for (std::size_t b = 1; b < numPolicies; ++b) {
            const std::size_t at = i * numPolicies + b;
            row.push_back(
                formatDouble(results[at].analyticPst / base, 2) +
                "x/" + std::to_string(swaps[at]) + "sw");
        }
        table.addRow(row);
    }
    std::cout << table.render() << "\n";
    std::cout << "Expected: gains saturate by MAH=4 (the paper's "
                 "setting); MAH=0 already helps\nbecause link "
                 "choice among hop-minimal routes remains "
                 "variation-aware. A small\nbudget can "
                 "occasionally beat a larger one: per-gate "
                 "relocation is myopic, and\nextra freedom "
                 "sometimes trades long-run placement quality for "
                 "a local win.\n";
    return 0;
}

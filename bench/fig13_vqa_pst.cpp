/**
 * @file
 * Fig. 13: relative PST of the full policy stack — IBM-native-like
 * randomized compiler (32 seeds, min/avg/max), baseline (= 1.0),
 * VQM, and VQA+VQM. Paper shape: native is ~4x below baseline;
 * VQA+VQM >= VQM >= baseline with up to ~1.7x gains (and up to 7x
 * over the native compiler).
 */
#include "bench_util.hpp"

#include <algorithm>

#include "common/statistics.hpp"
#include "common/table.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Figure 13", "PST for VQA and VQM+VQA vs IBM Native",
        "Relative PST normalized to the baseline policy. The "
        "randomized native\ncompiler is evaluated over 32 seeds "
        "(avg [min..max] reported).");

    bench::Q20Environment env;
    std::vector<core::Mapper> policies;
    policies.push_back(core::makeMapper({.name = "baseline"}));
    policies.push_back(core::makeMapper({.name = "vqm"}));
    policies.push_back(core::makeMapper({.name = "vqa+vqm"}));
    const std::size_t numPolicies = policies.size();

    // Compile the deterministic policy stack for every benchmark,
    // then evaluate the whole sweep through one batched trial
    // engine. The 32-seed randomized comparator only feeds the
    // min/avg/max summary, so it stays on the closed form.
    const auto suite = workloads::standardSuite(env.machine);
    std::vector<circuit::Circuit> physicals;
    physicals.reserve(suite.size() * numPolicies);
    for (const auto &w : suite) {
        for (const core::Mapper &policy : policies) {
            physicals.push_back(
                policy.map(w.circuit, env.machine, env.averaged)
                    .physical);
        }
    }
    const auto results =
        bench::batchPstOf(physicals, env.machine, env.averaged);

    TextTable table({"Benchmark", "IBM Native (avg [min..max])",
                     "Baseline", "VQM", "VQA+VQM"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &w = suite[i];
        const double base =
            results[i * numPolicies].analyticPst;
        const double aware =
            results[i * numPolicies + 1].analyticPst;
        const double both =
            results[i * numPolicies + 2].analyticPst;

        std::vector<double> native;
        for (std::uint64_t seed = 1; seed <= 32; ++seed) {
            native.push_back(
                bench::analyticPstOf(
                    core::makeMapper(
                        {.name = "random", .seed = seed}),
                    w.circuit, env.machine, env.averaged) /
                base);
        }
        const double lo =
            *std::min_element(native.begin(), native.end());
        const double hi =
            *std::max_element(native.begin(), native.end());

        table.addRow({w.name,
                      formatDouble(mean(native), 2) + " [" +
                          formatDouble(lo, 2) + ".." +
                          formatDouble(hi, 2) + "]",
                      "1.00", formatDouble(aware / base, 2),
                      formatDouble(both / base, 2)});
    }
    std::cout << table.render() << "\n";
    std::cout << "Expected shape (paper): native << baseline "
                 "(~0.25x avg); VQA+VQM >= VQM >= 1.0\nfor every "
                 "benchmark.\n";
    return 0;
}

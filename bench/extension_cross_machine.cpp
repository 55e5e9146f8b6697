/**
 * @file
 * Extension: do the paper's policies generalize beyond IBM-Q20?
 *
 * Runs the baseline / VQM / VQA+VQM comparison on three machine
 * generations with synthetic calibration drawn from the same
 * population statistics: the paper's IBM-Q20 Tokyo, the 27-qubit
 * heavy-hex Falcon that succeeded it, and a generic 5x5 mesh.
 * Heavy-hex's sparser connectivity (max degree 3) forces longer
 * routes, so variation-aware routing has *more* choices to exploit
 * per CNOT — the paper's insight should transfer.
 */
#include "bench_util.hpp"

#include "common/table.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Extension", "Policy Generalization Across Machines",
        "Relative PST (vs per-machine baseline) of VQM and "
        "VQA+VQM on three topologies,\nsame synthetic error "
        "population.");

    struct MachineCase
    {
        const char *label;
        topology::CouplingGraph graph;
    };
    MachineCase machines[] = {
        {"ibm-q20-tokyo", topology::ibmQ20Tokyo()},
        {"ibm-falcon-27", topology::ibmFalcon27()},
        {"mesh-5x5", topology::grid(5, 5)},
    };

    const core::Mapper baseline =
        core::makeMapper({.name = "baseline"});
    const core::Mapper vqm = core::makeMapper({.name = "vqm"});
    const core::Mapper vqaVqm = core::makeMapper({.name = "vqa+vqm"});

    TextTable table({"Machine", "Workload", "Baseline PST",
                     "VQM", "VQA+VQM", "swaps (base)"});
    for (auto &m : machines) {
        calibration::SyntheticSource source(
            m.graph, calibration::SyntheticParams{},
            bench::kArchiveSeed);
        const auto snap = source.series(40).averaged();
        const sim::NoiseModel model(m.graph, snap);

        const std::vector<workloads::Workload> suite = {
            {"bv-12", workloads::bernsteinVazirani(12)},
            {"ghz-10", workloads::ghz(10)},
            {"qft-8", workloads::qft(8)},
        };
        for (const auto &w : suite) {
            const auto mappedBase =
                baseline.map(w.circuit, m.graph, snap);
            const double base =
                sim::analyticPst(mappedBase.physical, model);
            const double aware = sim::analyticPst(
                vqm.map(w.circuit, m.graph, snap).physical,
                model);
            const double both = sim::analyticPst(
                vqaVqm.map(w.circuit, m.graph, snap).physical,
                model);
            table.addRow(
                {m.label, w.name, formatDouble(base, 5),
                 formatDouble(aware / base, 2) + "x",
                 formatDouble(both / base, 2) + "x",
                 std::to_string(mappedBase.insertedSwaps)});
        }
    }
    std::cout << table.render() << "\n";
    std::cout << "Expected: VQA+VQM >= VQM >= 1.0 on every "
                 "machine; sparser machines (heavy-hex)\nroute "
                 "longer and leave more room for variation-aware "
                 "gains.\n";
    return 0;
}

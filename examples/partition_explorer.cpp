/**
 * @file
 * Machine partitioning explorer (paper Section 8): given a program
 * that needs at most half the machine, should you run ONE copy on
 * the strongest qubits or TWO copies side by side?
 *
 * Prints the chosen regions, each copy's PST and trial latency, and
 * the STPT (successful trials per unit time) verdict for the three
 * 10-qubit workloads of Fig. 16.
 */
#include <iostream>
#include <sstream>

#include "calibration/synthetic.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "partition/partition.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace
{

std::string
regionToString(const std::vector<vaq::topology::PhysQubit> &region)
{
    std::ostringstream oss;
    oss << "{";
    for (std::size_t i = 0; i < region.size(); ++i) {
        if (i > 0)
            oss << ",";
        oss << region[i];
    }
    oss << "}";
    return oss.str();
}

} // namespace

int
main()
{
    using namespace vaq;

    const auto machine = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(machine);
    const auto calibration = source.series(52).averaged();
    const auto mapper = core::makeMapper({.name = "vqa+vqm"});

    for (const auto &w : workloads::tenQubitSuite()) {
        const auto report = partition::comparePartitioning(
            w.circuit, machine, calibration, mapper);

        std::cout << "== " << w.name << " ("
                  << w.circuit.instructionCount()
                  << " instructions)\n";
        std::cout << "  one strong copy on "
                  << regionToString(report.single.region)
                  << "\n    PST "
                  << formatDouble(report.single.pst, 5)
                  << ", trial "
                  << formatDouble(
                         report.single.durationNs / 1000.0, 2)
                  << " us, STPT "
                  << formatDouble(report.singleStpt, 5) << "\n";
        std::cout << "  two copies:\n";
        for (const auto &copy : report.dual) {
            std::cout << "    " << regionToString(copy.region)
                      << " PST " << formatDouble(copy.pst, 5)
                      << "\n";
        }
        std::cout << "    combined STPT "
                  << formatDouble(report.dualStpt, 5) << "\n";
        std::cout << "  verdict: "
                  << (report.singleWins()
                          ? "ONE STRONG COPY wins"
                          : "TWO COPIES win")
                  << " ("
                  << formatDouble(
                         report.singleWins()
                             ? report.singleStpt /
                                   report.dualStpt
                             : report.dualStpt /
                                   report.singleStpt,
                         2)
                  << "x)\n\n";
    }

    std::cout << "Variation-awareness enables adaptive "
                 "partitioning: pick the mode with the\nhigher "
                 "predicted STPT per workload (paper Section 8.2)."
              << "\n";
    return 0;
}

/**
 * @file
 * Table 1: benchmark characteristics — workload, qubit count, total
 * instructions, and SWAPs inserted by the baseline compile on
 * IBM-Q20 (paper values: alu 299/19, bv-16 66/7, bv-20 90/10,
 * qft-12 344/35, qft-14 550/53, rnd-SD 100/24, rnd-LD 100/35).
 */
#include "bench_util.hpp"

#include "common/table.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Table 1", "Benchmark Characteristics",
        "Instruction and SWAP counts for the seven NISQ "
        "workloads,\ncompiled for IBM-Q20 with the baseline "
        "(SWAP-minimizing) policy.");

    bench::Q20Environment env;
    const core::Mapper baseline =
        core::makeMapper({.name = "baseline"});

    TextTable table({"Workload", "Num Qubits", "Total Inst",
                     "SWAP Inst", "2q Ops", "Depth"});
    for (const auto &w : workloads::standardSuite(env.machine)) {
        const core::MappedCircuit mapped =
            baseline.map(w.circuit, env.machine, env.averaged);
        table.addRow(
            {w.name, std::to_string(w.circuit.numQubits()),
             std::to_string(w.circuit.instructionCount()),
             std::to_string(mapped.insertedSwaps),
             std::to_string(mapped.physical.twoQubitCount()),
             std::to_string(mapped.physical.depth())});
    }
    std::cout << table.render() << "\n";
    std::cout << "Note: Total Inst counts the *logical* program; "
                 "SWAP Inst is added by routing.\n";
    return 0;
}

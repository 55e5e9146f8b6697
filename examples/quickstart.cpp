/**
 * @file
 * Quickstart: compile a program for a noisy 20-qubit machine and
 * estimate how often it runs correctly.
 *
 * Walks the core libvaq loop:
 *   1. pick a machine topology,
 *   2. obtain calibration data (synthetic here; load a CSV for a
 *      real machine),
 *   3. build a logical circuit,
 *   4. compile it with a variation-unaware baseline and with the
 *      variation-aware VQA+VQM policy,
 *   5. compare PST (probability of a successful trial).
 */
#include <iostream>

#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;

    // 1. The machine: IBM-Q20 "Tokyo" (the paper's target).
    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    std::cout << "Machine: " << machine.name() << " with "
              << machine.numQubits() << " qubits and "
              << machine.linkCount() << " links\n";

    // 2. Calibration: a synthetic 52-day characterization series
    //    statistically matched to the paper's published data.
    calibration::SyntheticSource source(machine);
    const calibration::Snapshot calibration =
        source.series(52).averaged();

    // 3. The program: a 10-qubit Bernstein-Vazirani kernel.
    const circuit::Circuit program =
        workloads::bernsteinVazirani(10);
    std::cout << "Program: bv-10 with "
              << program.instructionCount() << " instructions\n\n";

    // 4. Compile with both policies.
    const core::Mapper baseline =
        core::makeMapper({.name = "baseline"});
    const core::Mapper aware = core::makeMapper({.name = "vqa+vqm"});
    const core::MappedCircuit mappedBase =
        baseline.map(program, machine, calibration);
    const core::MappedCircuit mappedAware =
        aware.map(program, machine, calibration);

    // 5. Estimate reliability with the Monte-Carlo fault injector
    //    (one worker per hardware thread; results do not depend on
    //    the thread count).
    const sim::NoiseModel model(machine, calibration);
    sim::ParallelFaultSim engine;
    sim::ParallelFaultSimOptions options;
    options.trials = 200000;

    const auto resultBase =
        engine.run(mappedBase.physical, model, options);
    const auto resultAware =
        engine.run(mappedAware.physical, model, options);

    std::cout << "baseline: " << mappedBase.insertedSwaps
              << " swaps inserted, PST = "
              << formatDouble(resultBase.pst, 4) << "\n";
    std::cout << "vqa+vqm : " << mappedAware.insertedSwaps
              << " swaps inserted, PST = "
              << formatDouble(resultAware.pst, 4) << "\n";
    std::cout << "relative improvement: "
              << formatDouble(resultAware.pst / resultBase.pst, 2)
              << "x\n\n";

    // Bonus: the compiled circuit is plain OpenQASM 2.0.
    const std::string qasm = circuit::toQasm(mappedAware.physical);
    std::cout << "first lines of the compiled program:\n"
              << qasm.substr(0, 200) << "...\n";
    return 0;
}

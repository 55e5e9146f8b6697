/**
 * @file
 * Bring your own machine: libvaq is not hard-wired to the IBM
 * layouts. This example defines an 8-qubit ring with a hand-written
 * calibration snapshot, persists the calibration as CSV, parses a
 * program from OpenQASM text, and shows how VQM routes around the
 * ring's weak side.
 */
#include <iostream>

#include "calibration/csv_io.hpp"
#include "circuit/qasm.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "topology/layouts.hpp"

int
main()
{
    using namespace vaq;

    // An 8-qubit ring machine.
    const topology::CouplingGraph machine = topology::ring(8);

    // Hand-written calibration: the "north" side (links 0-1-2-3-4)
    // is pristine, the "south" side (4-5-6-7-0) is in bad shape.
    calibration::Snapshot calibration(machine);
    for (int q = 0; q < machine.numQubits(); ++q) {
        auto &qubit = calibration.qubit(q);
        qubit.t1Us = 75.0;
        qubit.t2Us = 40.0;
        qubit.error1q = 0.002;
        qubit.readoutError = 0.02;
    }
    for (std::size_t l = 0; l < machine.linkCount(); ++l) {
        const auto &link = machine.links()[l];
        const bool north = link.a < 4 && link.b < 4 &&
                           link.b == link.a + 1;
        calibration.setLinkError(l, north ? 0.01 : 0.12);
    }

    // Persist and reload the calibration (the same CSV format can
    // carry real characterization exports).
    const std::string path = "/tmp/ring8_calibration.csv";
    calibration::saveCsv(path, calibration, machine);
    const calibration::Snapshot reloaded =
        calibration::loadCsv(path, machine);
    std::cout << "calibration written to and reloaded from "
              << path << "\n\n";

    // A program handed to us as OpenQASM text.
    const circuit::Circuit program = circuit::fromQasm(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[4];\n"
        "creg c[4];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "cx q[0],q[2];\n"
        "cx q[0],q[3];\n"
        "measure q[0] -> c[0];\n"
        "measure q[1] -> c[1];\n"
        "measure q[2] -> c[2];\n"
        "measure q[3] -> c[3];\n");

    const sim::NoiseModel model(machine, reloaded);
    for (const core::Mapper &mapper :
         {core::makeMapper({.name = "baseline"}),
          core::makeMapper({.name = "vqm"}),
          core::makeMapper({.name = "vqa+vqm"})}) {
        const core::MappedCircuit mapped =
            mapper.map(program, machine, reloaded);
        std::cout << mapper.name() << ": initial layout [";
        for (int q = 0; q < program.numQubits(); ++q) {
            std::cout << (q ? "," : "")
                      << mapped.initial.phys(q);
        }
        std::cout << "], " << mapped.insertedSwaps
                  << " swaps, PST = "
                  << formatDouble(
                         sim::analyticPst(mapped.physical, model),
                         4)
                  << "\n";
    }
    std::cout << "\nThe variation-aware policies confine the "
                 "program to the pristine north arc;\nthe "
                 "baseline, blind to error rates, may put qubits "
                 "on the weak south links.\n";
    return 0;
}

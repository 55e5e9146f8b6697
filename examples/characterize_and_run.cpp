/**
 * @file
 * The complete NISQ operations loop on a machine you can only run
 * circuits on — no oracle access to its error rates:
 *
 *   1. characterize: estimate per-link/per-qubit errors by
 *      executing decay sequences (what IBM's daily calibration
 *      does, Section 3 of the paper),
 *   2. compile: feed the *estimated* calibration to the
 *      variation-aware policies,
 *   3. run: execute thousands of trials (Fig. 4) and infer the
 *      answer from the output log.
 *
 * The "machine" is the trajectory simulator wearing a hidden
 * calibration; the example never reads it directly.
 */
#include <iostream>

#include "calibration/synthetic.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "runtime/iterative.hpp"
#include "sim/characterize.hpp"
#include "sim/trajectory_sim.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

int
main()
{
    using namespace vaq;

    const auto machine = topology::ibmQ5Tenerife();

    // The hidden truth: this is what the physical device "is".
    // Everything below only interacts with it by running circuits.
    calibration::SyntheticSource hidden(
        machine, calibration::SyntheticParams{}, 20260706);
    calibration::Snapshot secretTruth = hidden.nextCycle();
    secretTruth.setLinkError(machine.linkIndex(0, 1), 0.14);

    auto execute = [&](const circuit::Circuit &c,
                       std::size_t shots) {
        const sim::NoiseModel model(machine, secretTruth);
        sim::TrajectoryOptions options;
        options.shots = shots;
        sim::TrajectorySimulator sim(model, options);
        return sim.run(c);
    };

    // 1. Characterize.
    std::cout << "characterizing " << machine.name() << "...\n";
    const calibration::Snapshot estimated =
        sim::characterizeMachine(
            machine,
            [&](const circuit::Circuit &c) {
                return execute(c, 2048);
            });
    for (std::size_t l = 0; l < machine.linkCount(); ++l) {
        const auto &link = machine.links()[l];
        std::cout << "  link " << link.a << "-" << link.b
                  << ": estimated 2q error "
                  << formatDouble(estimated.linkError(l), 3)
                  << " (truth "
                  << formatDouble(secretTruth.linkError(l), 3)
                  << ")\n";
    }

    // 2 + 3. Compile against the estimate and run the job.
    const runtime::IterativeRunner runner(
        machine, [&](const circuit::Circuit &c,
                     std::size_t shots) {
            return execute(c, shots);
        });

    const auto program = workloads::bernsteinVazirani(4);
    std::cout << "\nrunning bv-4 (hidden string 111), 4096 "
                 "trials each:\n";
    for (const core::Mapper &mapper :
         {core::makeMapper({.name = "baseline"}),
          core::makeMapper({.name = "vqa+vqm"})}) {
        const auto job =
            runner.run(program, mapper, estimated, 4096);
        std::cout << "  " << mapper.name() << ": inferred "
                  << job.log.inferredOutcome()
                  << " with confidence "
                  << formatDouble(job.log.confidence(), 3)
                  << " (" << job.mapped.insertedSwaps
                  << " swaps)\n";
    }
    std::cout << "\nBoth policies infer the right answer; the "
                 "variation-aware one does it with\nhigher "
                 "per-trial confidence, i.e. fewer trials for "
                 "the same certainty.\n";
    return 0;
}

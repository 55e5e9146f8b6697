/**
 * @file
 * Shared environment for the reproduction benches: one synthetic
 * IBM-Q20 characterization archive (the stand-in for the paper's
 * 52-day scrape; >100 calibration cycles) plus small helpers.
 *
 * All benches use the same seed so their numbers refer to the same
 * "machine history" and can be cross-read like the paper's figures.
 */
#ifndef VAQ_BENCH_BENCH_UTIL_HPP
#define VAQ_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <iostream>
#include <string>

#include <vector>

#include "calibration/snapshot.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/circuit.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "topology/layouts.hpp"

namespace vaq::bench
{

/** Calibration-archive seed shared by every bench. */
inline constexpr std::uint64_t kArchiveSeed = 7;

/** Calibration cycles in the archive (52 days, ~2 cycles/day). */
inline constexpr std::size_t kArchiveCycles = 104;

/** The simulated IBM-Q20 plus its characterization archive. */
struct Q20Environment
{
    topology::CouplingGraph machine = topology::ibmQ20Tokyo();
    calibration::CalibrationSeries archive;
    calibration::Snapshot averaged;

    Q20Environment()
        : archive(calibration::SyntheticSource(
                      machine, calibration::SyntheticParams{},
                      kArchiveSeed)
                      .series(kArchiveCycles)),
          averaged(archive.averaged())
    {
    }
};

/** Compile and return the compile-time analytic PST. */
inline double
analyticPstOf(const core::Mapper &mapper,
              const circuit::Circuit &logical,
              const topology::CouplingGraph &machine,
              const calibration::Snapshot &snapshot)
{
    const sim::NoiseModel model(machine, snapshot);
    return sim::analyticPst(
        mapper.map(logical, machine, snapshot).physical, model);
}

/**
 * Evaluate a compiled sweep on one shared parallel trial engine:
 * Monte-Carlo PST (with error bar) plus the closed form, one result
 * per input circuit. Replaces the per-circuit serial loops the
 * figure drivers used to run; `FaultSimResult::analyticPst` carries
 * the same closed-form values those loops reported.
 */
inline std::vector<sim::FaultSimResult>
batchPstOf(const std::vector<circuit::Circuit> &physicals,
           const topology::CouplingGraph &machine,
           const calibration::Snapshot &snapshot,
           std::size_t trials = 200'000)
{
    const sim::NoiseModel model(machine, snapshot);
    sim::ParallelFaultSim engine;
    sim::ParallelFaultSimOptions options;
    options.trials = trials;
    return engine.runBatch(physicals, model, options);
}

/**
 * Hand-written Tenerife-era calibration for the Section 7 benches.
 * Section 7 reports a 4.2 % average two-qubit error with the worst
 * link at 12 %; the paper's absolute PSTs (bv-3 baseline 0.31)
 * imply heavy readout error, consistent with public Tenerife data
 * of the period (per-qubit readout errors up to ~30 %).
 */
inline calibration::Snapshot
paperEraTenerife(const topology::CouplingGraph &q5)
{
    calibration::Snapshot snap(q5);
    const double linkErr[][3] = {
        {0, 1, 0.120}, // the paper's worst link
        {0, 2, 0.055}, {1, 2, 0.028}, {2, 3, 0.035},
        {2, 4, 0.052}, {3, 4, 0.022},
    };
    for (const auto &row : linkErr) {
        snap.setLinkError(q5.linkIndex(static_cast<int>(row[0]),
                                       static_cast<int>(row[1])),
                          row[2]);
    }
    const double readout[] = {0.24, 0.16, 0.08, 0.10, 0.29};
    const double err1q[] = {0.0023, 0.0014, 0.0032, 0.0009,
                            0.0041};
    const double t1[] = {52.0, 58.0, 49.0, 43.0, 40.0};
    const double t2[] = {31.0, 40.0, 38.0, 19.0, 12.0};
    for (int q = 0; q < 5; ++q) {
        auto &cal = snap.qubit(q);
        cal.readoutError = readout[q];
        cal.error1q = err1q[q];
        cal.t1Us = t1[q];
        cal.t2Us = t2[q];
    }
    return snap;
}

/** Print the standard bench header. */
inline void
printHeader(const std::string &experiment,
            const std::string &paperRef,
            const std::string &description)
{
    std::cout << "=====================================================\n"
              << experiment << " -- " << paperRef << "\n"
              << description << "\n"
              << "=====================================================\n\n";
}

} // namespace vaq::bench

#endif // VAQ_BENCH_BENCH_UTIL_HPP

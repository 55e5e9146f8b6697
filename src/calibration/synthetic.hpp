/**
 * @file
 * Synthetic characterization-data source.
 *
 * SUBSTITUTION NOTE (see DESIGN.md §2.1): the paper scraped 52 days
 * of public IBM-Q20 calibration reports from the IBM Quantum
 * Experience website. That archive is not available offline, so this
 * generator produces calibration series whose marginal statistics
 * match every number the paper publishes:
 *
 *  - T1 ~ N(80.32, 35.23) us, truncated positive        (Fig. 5a)
 *  - T2 ~ N(42.13, 13.34) us, truncated, T2 <= 2*T1     (Fig. 5b)
 *  - 1q gate error: log-normal, most mass below 1 %     (Fig. 6)
 *  - 2q link error: mean 4.3 %, sigma 3.02 %, per-link
 *    averages spanning [0.02, 0.15] (7.5x spread)       (Figs. 7, 9)
 *  - temporal persistence: strong links stay strong,
 *    with rare recalibration jumps                      (Fig. 8)
 *
 * Each link/qubit gets a fixed "personality" (its long-run mean) and
 * per-cycle observations drift multiplicatively around it, so both
 * the per-day and the averaged-over-days workflows of the paper are
 * exercised faithfully.
 */
#ifndef VAQ_CALIBRATION_SYNTHETIC_HPP
#define VAQ_CALIBRATION_SYNTHETIC_HPP

#include <cstdint>

#include "calibration/snapshot.hpp"
#include "common/rng.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::calibration
{

/** Tunable population statistics for the synthetic source. */
struct SyntheticParams
{
    // Coherence times (microseconds), from the paper's Section 3.1.
    double t1MeanUs = 80.32;
    double t1StdUs = 35.23;
    double t1MinUs = 5.0;
    double t1MaxUs = 220.0;
    double t2MeanUs = 42.13;
    double t2StdUs = 13.34;
    double t2MinUs = 3.0;
    double t2MaxUs = 120.0;

    // Two-qubit link errors, Section 3.3/3.5.
    double err2qMean = 0.043;
    double err2qSigmaLog = 0.25;  ///< log-space spread across links
    double err2qMin = 0.005;
    double err2qMax = 0.25;
    double linkPersonalityMin = 0.015; ///< floor of long-run means
    double linkPersonalityMax = 0.17;  ///< cap of long-run means
    /**
     * Log-space penalty added to peripheral links. The published
     * Q20 characterization (paper Fig. 9) shows its weakest links
     * at the chip edge (e.g. Q14-Q18 at 0.15) while the centre is
     * comparatively strong; reproducing that spatial structure
     * matters because the variation-blind baseline places programs
     * in the centre and thereby dodges edge links. 0 disables the
     * structure (spatially uniform variation).
     */
    double peripheryBiasLog = 1.8;

    // Single-qubit gate errors, Section 3.2.
    double err1qMedian = 0.0025;
    double err1qSigmaLog = 0.8;
    double err1qMin = 1e-4;
    double err1qMax = 0.04;

    // Readout (measurement) errors.
    double readoutMedian = 0.025;
    double readoutSigmaLog = 0.5;
    double readoutMin = 0.005;
    double readoutMax = 0.12;

    // Temporal model, Section 3.4.
    double dailyDriftSigmaLog = 0.20; ///< per-cycle log-normal drift
    /**
     * Chance per cycle that a link re-rolls its long-run
     * personality (the paper's occasional "opposite behavior"
     * events). Kept rare so archive-averaged link strengths retain
     * the published 7.5x spatial spread.
     */
    double jumpProbability = 0.004;
};

/**
 * Deterministic (seeded) generator of calibration snapshots for an
 * arbitrary machine topology.
 */
class SyntheticSource
{
  public:
    /**
     * @param graph Machine whose qubits/links get calibrated.
     * @param params Population statistics.
     * @param seed RNG seed; equal seeds give equal series.
     */
    SyntheticSource(const topology::CouplingGraph &graph,
                    const SyntheticParams &params = {},
                    std::uint64_t seed = 7);
    /** The source borrows the graph: a temporary would dangle. */
    SyntheticSource(const topology::CouplingGraph &&,
                    const SyntheticParams & = {},
                    std::uint64_t = 7) = delete;

    /** Generate the next calibration cycle. */
    Snapshot nextCycle();

    /** Generate a series of `cycles` consecutive snapshots. */
    CalibrationSeries series(std::size_t cycles);

    /** The long-run mean two-qubit error of each link. */
    const std::vector<double> &linkPersonalities() const
    {
        return _linkPersonality;
    }

  private:
    double drawLinkPersonality(std::size_t link);

    const topology::CouplingGraph &_graph;
    SyntheticParams _params;
    Rng _rng;

    // Log-space spatial bias per link (periphery penalty).
    std::vector<double> _linkBias;
    // Long-run means ("personalities").
    std::vector<double> _linkPersonality;
    std::vector<QubitCalibration> _qubitPersonality;
};

} // namespace vaq::calibration

#endif // VAQ_CALIBRATION_SYNTHETIC_HPP

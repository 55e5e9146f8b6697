/**
 * @file
 * Soundness of the certified staleness bound: over a full synthetic
 * 52-day calibration series (104 cycles, the paper's study window),
 * for every (circuit, epoch-pair), the empirical |delta logPST| —
 * closed form AND the pipeline's product form — never exceeds the
 * certified bound, and the exact analytic shift reproduces the new
 * closed form to rounding. Plus the certificate edge cases: zero
 * drift and T2-only drift certify at bound exactly 0, duration
 * changes and out-of-domain parameters void the certificate.
 */
#include "analysis/staleness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/sensitivity.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/circuit.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::analysis
{
namespace
{

SensitivityProfile
profileOf(const circuit::Circuit &physical,
          const topology::CouplingGraph &graph,
          const calibration::Snapshot &snapshot)
{
    const DataflowAnalysis df(physical, snapshot.durations);
    return analyzeSensitivity(df, graph, snapshot);
}

TEST(Staleness, ZeroDriftHasBoundExactlyZero)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const calibration::Snapshot snap =
        vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).measureAll();
    const SensitivityProfile profile = profileOf(c, q5, snap);

    const StalenessAssessment assess = assessStaleness(profile, snap);
    EXPECT_TRUE(assess.certifiable);
    EXPECT_FALSE(assess.anyDelta);
    EXPECT_EQ(assess.bound(), 0.0); // exactly: nothing changed
    EXPECT_EQ(assess.deltaLogPst, 0.0);
    EXPECT_TRUE(assess.within(0.0));
}

TEST(Staleness, T2OnlyDriftCertifiesAtZero)
{
    // The PerOp coherence model charges T1 only, so a cycle that
    // re-measures every T2 is provably harmless: bound exactly 0.
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    const SensitivityProfile profile = profileOf(c, q5, snap);

    for (int q = 0; q < 5; ++q)
        snap.qubit(q).t2Us *= 0.5;
    const StalenessAssessment assess = assessStaleness(profile, snap);
    EXPECT_TRUE(assess.certifiable);
    EXPECT_FALSE(assess.anyDelta);
    EXPECT_EQ(assess.bound(), 0.0);
}

TEST(Staleness, UntouchedParameterDriftCertifiesAtZero)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).measure(0).measure(1); // qubits 2-4 idle
    const SensitivityProfile profile = profileOf(c, q5, snap);

    snap.qubit(4).error1q = 0.03;
    snap.qubit(4).readoutError = 0.1;
    snap.setLinkError(q5.linkIndex(3, 4), 0.2);
    const StalenessAssessment assess = assessStaleness(profile, snap);
    EXPECT_TRUE(assess.certifiable);
    EXPECT_FALSE(assess.anyDelta);
    EXPECT_EQ(assess.bound(), 0.0);
}

TEST(Staleness, DurationChangeVoidsTheCertificate)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.h(0).measure(0);
    const SensitivityProfile profile = profileOf(c, q5, snap);

    snap.durations.twoQubitNs += 1.0;
    const StalenessAssessment assess = assessStaleness(profile, snap);
    EXPECT_FALSE(assess.certifiable);
    EXPECT_TRUE(std::isinf(assess.bound()));
    EXPECT_FALSE(assess.within(1e9));
}

TEST(Staleness, OutOfDomainParametersVoidTheCertificate)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).measure(0);

    {
        calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
        const SensitivityProfile profile = profileOf(c, q5, snap);
        snap.qubit(0).error1q = 1.0; // log1p(-1) = -inf
        EXPECT_FALSE(assessStaleness(profile, snap).certifiable);
    }
    {
        calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
        const SensitivityProfile profile = profileOf(c, q5, snap);
        snap.qubit(0).t1Us = 0.0;
        EXPECT_FALSE(assessStaleness(profile, snap).certifiable);
    }
    {
        calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
        const SensitivityProfile profile = profileOf(c, q5, snap);
        snap.qubit(0).readoutError =
            std::numeric_limits<double>::quiet_NaN();
        EXPECT_FALSE(assessStaleness(profile, snap).certifiable);
    }
    {
        // A parameter with zero weight is not a dependency: qubit 1
        // is never measured, so its readout error may go anywhere
        // without voiding the certificate.
        calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
        const SensitivityProfile profile = profileOf(c, q5, snap);
        snap.qubit(1).readoutError =
            std::numeric_limits<double>::quiet_NaN();
        EXPECT_TRUE(assessStaleness(profile, snap).certifiable);
    }
}

TEST(Staleness, BoundDominatesFirstOrderEstimate)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).measureAll();
    const SensitivityProfile profile = profileOf(c, q5, snap);

    snap.setLinkError(q5.linkIndex(0, 1), 0.08);
    const StalenessAssessment assess = assessStaleness(profile, snap);
    ASSERT_TRUE(assess.certifiable);
    EXPECT_TRUE(assess.anyDelta);
    EXPECT_GT(assess.firstOrder, 0.0);
    EXPECT_GT(assess.secondOrder, 0.0);
    EXPECT_GT(assess.fpSlack, 0.0);
    EXPECT_GE(assess.bound(),
              assess.firstOrder + assess.secondOrder);
    // The exact shift is inside the certified interval.
    EXPECT_LE(std::abs(assess.deltaLogPst), assess.bound());
}

/**
 * The headline property: replay the full 52-day synthetic archive
 * (104 calibration cycles) and check every (circuit, epoch-pair)
 * i -> j. With the profile built at epoch i:
 *
 *  - |logPST(j) - logPST(i)| (closed form)  <= bound
 *  - |log(analyticPst(j) / analyticPst(i))| <= bound  (product form)
 *  - logPST(i) + deltaLogPst == logPST(j) to rounding (the shift
 *    a bound-serve folds into the stored PST is exact)
 */
TEST(Staleness, BoundIsSoundOverTheFullCalibrationArchive)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20, {}, 7);
    const std::vector<calibration::Snapshot> epochs =
        source.series(104).snapshots();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});

    std::size_t pairsChecked = 0;
    for (const circuit::Circuit &logical :
         {workloads::ghz(6), workloads::qft(5),
          workloads::bernsteinVazirani(8)}) {
        // One fixed mapping (compiled at epoch 0) assessed against
        // every later cycle — the store's serving situation.
        const circuit::Circuit physical =
            mapper.map(logical, q20, epochs.front()).physical;

        std::vector<SensitivityProfile> profiles;
        std::vector<double> productLog;
        profiles.reserve(epochs.size());
        productLog.reserve(epochs.size());
        for (const calibration::Snapshot &snap : epochs) {
            profiles.push_back(profileOf(physical, q20, snap));
            const sim::NoiseModel model(q20, snap,
                                        sim::CoherenceMode::PerOp);
            productLog.push_back(
                std::log(sim::analyticPst(physical, model)));
        }

        for (std::size_t i = 0; i < epochs.size(); ++i) {
            for (std::size_t j = i + 1; j < epochs.size(); ++j) {
                const StalenessAssessment assess =
                    assessStaleness(profiles[i], epochs[j]);
                ASSERT_TRUE(assess.certifiable)
                    << "epochs " << i << " -> " << j;
                const double bound = assess.bound();
                const double closedDelta =
                    profiles[j].logPst - profiles[i].logPst;
                EXPECT_LE(std::abs(closedDelta), bound)
                    << "closed form, epochs " << i << " -> " << j;
                EXPECT_LE(std::abs(productLog[j] - productLog[i]),
                          bound)
                    << "product form, epochs " << i << " -> " << j;
                EXPECT_NEAR(assess.deltaLogPst, closedDelta, 1e-9)
                    << "exact shift, epochs " << i << " -> " << j;
                ++pairsChecked;
            }
        }
    }
    EXPECT_EQ(pairsChecked, 3u * (104u * 103u) / 2u);
}

} // namespace
} // namespace vaq::analysis

/**
 * @file
 * Calibration quarantine tests: dead and non-finite entries are
 * pulled with a reason, the cleaned snapshot always validates, and
 * the healthy region is the deterministic largest component.
 */
#include <gtest/gtest.h>

#include <limits>

#include "calibration/sanitize.hpp"
#include "common/error.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::calibration
{
namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Sanitize, CleanSnapshotPassesUntouched)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const auto snap = vaq::test::uniformSnapshot(q5);
    const SanitizedCalibration result = sanitize(snap, q5);

    EXPECT_TRUE(result.report.clean());
    EXPECT_TRUE(result.usable);
    ASSERT_EQ(result.healthyRegion.size(),
              static_cast<std::size_t>(q5.numQubits()));
    for (int q = 0; q < q5.numQubits(); ++q)
        EXPECT_EQ(result.healthyRegion[static_cast<std::size_t>(q)],
                  q);
    EXPECT_NO_THROW(result.snapshot.validate());
}

TEST(Sanitize, NaNQubitIsQuarantinedWithItsLinks)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = vaq::test::uniformSnapshot(q5);
    snap.qubit(3).t1Us = kNaN;

    const SanitizedCalibration result = sanitize(snap, q5);
    ASSERT_EQ(result.report.qubits.size(), 1u);
    EXPECT_EQ(result.report.qubits[0].qubit, 3);
    EXPECT_EQ(result.report.qubits[0].reason,
              "non-finite calibration value");
    // Tenerife links 2-3 and 3-4 lose an endpoint.
    ASSERT_EQ(result.report.links.size(), 2u);
    for (const QuarantinedLink &l : result.report.links) {
        EXPECT_TRUE(l.a == 3 || l.b == 3);
        EXPECT_EQ(l.reason, "endpoint qubit quarantined");
    }

    // {0,1,2,4} stays connected through 0-1, 0-2, 1-2, 2-4.
    EXPECT_TRUE(result.usable);
    EXPECT_EQ(result.healthyRegion,
              (std::vector<topology::PhysQubit>{0, 1, 2, 4}));

    // Cleaned copy is finite and validates; the dead entries are
    // pinned to worst-case values.
    EXPECT_NO_THROW(result.snapshot.validate());
    EXPECT_EQ(result.snapshot.qubit(3).error1q, 1.0);
    EXPECT_EQ(result.snapshot.linkError(q5.linkIndex(2, 3)), 1.0);

    const topology::CouplingGraph healthy =
        q5.inducedSubgraph(result.healthyRegion);
    EXPECT_EQ(healthy.numQubits(), 4);
    EXPECT_TRUE(healthy.isConnected());
}

TEST(Sanitize, DeadLinkAndZeroCoherenceAreDetected)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = vaq::test::uniformSnapshot(q5);
    snap.setLinkError(q5.linkIndex(0, 1), 0.99); // >= threshold
    snap.qubit(4).t2Us = 1e-9;                   // "zero" coherence

    const SanitizedCalibration result = sanitize(snap, q5);
    ASSERT_EQ(result.report.qubits.size(), 1u);
    EXPECT_EQ(result.report.qubits[0].qubit, 4);
    EXPECT_EQ(result.report.qubits[0].reason, "zero coherence");

    bool sawDeadLink = false;
    for (const QuarantinedLink &l : result.report.links) {
        if (l.a == 0 && l.b == 1) {
            sawDeadLink = true;
            EXPECT_EQ(l.reason, "link error at dead threshold");
        }
    }
    EXPECT_TRUE(sawDeadLink);
    EXPECT_TRUE(result.usable);
    EXPECT_NO_THROW(result.snapshot.validate());
}

TEST(Sanitize, NonFiniteDurationsAreReset)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = vaq::test::uniformSnapshot(q5);
    snap.durations.twoQubitNs = kInf;

    const SanitizedCalibration result = sanitize(snap, q5);
    EXPECT_TRUE(result.report.durationsReset);
    EXPECT_FALSE(result.report.clean());
    EXPECT_TRUE(result.usable);
    EXPECT_NO_THROW(result.snapshot.validate());
}

TEST(Sanitize, FullyDeadMachineIsUnusable)
{
    const auto q5 = topology::ibmQ5Tenerife();
    auto snap = vaq::test::uniformSnapshot(q5);
    for (int q = 0; q < q5.numQubits(); ++q)
        snap.qubit(q).readoutError = kNaN;

    const SanitizedCalibration result = sanitize(snap, q5);
    EXPECT_EQ(result.report.qubits.size(),
              static_cast<std::size_t>(q5.numQubits()));
    EXPECT_TRUE(result.healthyRegion.empty());
    EXPECT_FALSE(result.usable);
    EXPECT_NO_THROW(result.snapshot.validate());
}

TEST(Sanitize, MinHealthyFractionGatesUsability)
{
    const auto line = topology::linear(8);
    auto snap = vaq::test::uniformSnapshot(line);
    // Kill qubits 2..7: only {0,1} survive (25% of the machine).
    for (int q = 2; q < 8; ++q)
        snap.qubit(q).error1q = 1.0;

    SanitizeOptions strict;
    strict.minHealthyFraction = 0.5;
    EXPECT_FALSE(sanitize(snap, line, strict).usable);

    SanitizeOptions lax;
    lax.minHealthyFraction = 0.25;
    const SanitizedCalibration result = sanitize(snap, line, lax);
    EXPECT_TRUE(result.usable);
    EXPECT_EQ(result.healthyRegion,
              (std::vector<topology::PhysQubit>{0, 1}));
}

TEST(Sanitize, ShapeMismatchStillThrows)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const auto line = topology::linear(3);
    const auto snap = vaq::test::uniformSnapshot(line);
    EXPECT_THROW(sanitize(snap, q5), VaqError);
}

} // namespace
} // namespace vaq::calibration

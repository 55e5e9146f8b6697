#include "calibration/synthetic.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/statistics.hpp"
#include "topology/layouts.hpp"

namespace vaq::calibration
{
namespace
{

// The source borrows its graph, so it refuses a temporary.
using topology::CouplingGraph;
static_assert(
    std::is_constructible_v<SyntheticSource, const CouplingGraph &>);
static_assert(!std::is_constructible_v<SyntheticSource, CouplingGraph>);
static_assert(!std::is_constructible_v<SyntheticSource, CouplingGraph,
                                       const SyntheticParams &,
                                       std::uint64_t>);

/** Pool a statistic over every qubit/cycle of a series. */
template <typename Extract>
std::vector<double>
poolQubits(const CalibrationSeries &series, Extract &&extract)
{
    std::vector<double> out;
    for (const Snapshot &snap : series.snapshots()) {
        for (int q = 0; q < snap.numQubits(); ++q)
            out.push_back(extract(snap.qubit(q)));
    }
    return out;
}

class SyntheticQ20 : public ::testing::Test
{
  protected:
    SyntheticQ20()
        : graph(topology::ibmQ20Tokyo()),
          source(graph, SyntheticParams{}, 7),
          series(source.series(100))
    {}

    topology::CouplingGraph graph;
    SyntheticSource source;
    CalibrationSeries series;
};

TEST_F(SyntheticQ20, SnapshotsAreValid)
{
    for (const Snapshot &snap : series.snapshots())
        EXPECT_NO_THROW(snap.validate());
    EXPECT_EQ(series.size(), 100u);
}

TEST_F(SyntheticQ20, T1StatisticsMatchPaper)
{
    // Paper Section 3.1: mean 80.32 us, sigma 35.23 us.
    const auto t1 = poolQubits(
        series, [](const QubitCalibration &q) { return q.t1Us; });
    EXPECT_NEAR(mean(t1), 80.32, 12.0);
    EXPECT_NEAR(stddev(t1), 35.23, 12.0);
}

TEST_F(SyntheticQ20, T2StatisticsMatchPaper)
{
    // Paper Section 3.1: mean 42.13 us, sigma 13.34 us.
    const auto t2 = poolQubits(
        series, [](const QubitCalibration &q) { return q.t2Us; });
    EXPECT_NEAR(mean(t2), 42.13, 8.0);
    EXPECT_NEAR(stddev(t2), 13.34, 6.0);
}

TEST_F(SyntheticQ20, T2NeverExceedsTwiceT1)
{
    for (const Snapshot &snap : series.snapshots()) {
        for (int q = 0; q < snap.numQubits(); ++q) {
            EXPECT_LE(snap.qubit(q).t2Us,
                      2.0 * snap.qubit(q).t1Us + 1e-9);
        }
    }
}

TEST_F(SyntheticQ20, TwoQubitErrorStatisticsMatchPaper)
{
    // Paper Section 3.3: mean 4.3 %, sigma 3.02 %.
    std::vector<double> errors;
    for (const Snapshot &snap : series.snapshots()) {
        const auto e = snap.allLinkErrors();
        errors.insert(errors.end(), e.begin(), e.end());
    }
    EXPECT_NEAR(mean(errors), 0.043, 0.012);
    EXPECT_NEAR(stddev(errors), 0.0302, 0.015);
}

TEST_F(SyntheticQ20, SpatialSpreadCoversPaperRange)
{
    // Paper Fig. 9: per-link averages span ~0.02 .. 0.15 (7.5x).
    const Snapshot avg = series.averaged();
    const auto errors = avg.allLinkErrors();
    double lo = errors[0], hi = errors[0];
    for (double e : errors) {
        lo = std::min(lo, e);
        hi = std::max(hi, e);
    }
    EXPECT_LT(lo, 0.03);
    EXPECT_GT(hi, 0.09);
    EXPECT_GT(hi / lo, 3.0);
}

TEST_F(SyntheticQ20, SingleQubitErrorsMostlyBelowOnePercent)
{
    // Paper Section 3.2 / Fig. 6.
    const auto e1q = poolQubits(
        series,
        [](const QubitCalibration &q) { return q.error1q; });
    std::size_t below = 0;
    for (double e : e1q) {
        EXPECT_LE(e, 0.04 + 1e-12);
        if (e < 0.01)
            ++below;
    }
    EXPECT_GT(static_cast<double>(below) /
                  static_cast<double>(e1q.size()),
              0.80);
}

TEST_F(SyntheticQ20, StrongLinksStayStrong)
{
    // Paper Section 3.4 / Fig. 8: temporal persistence. The
    // strongest and weakest long-run links should keep their
    // ordering on a large majority of individual days.
    const Snapshot avg = series.averaged();
    std::size_t strongest = 0, weakest = 0;
    for (std::size_t l = 1; l < avg.numLinks(); ++l) {
        if (avg.linkError(l) < avg.linkError(strongest))
            strongest = l;
        if (avg.linkError(l) > avg.linkError(weakest))
            weakest = l;
    }
    std::size_t ordered = 0;
    for (const Snapshot &snap : series.snapshots()) {
        if (snap.linkError(strongest) < snap.linkError(weakest))
            ++ordered;
    }
    EXPECT_GT(ordered, series.size() * 8 / 10);
}

TEST(Synthetic, Deterministic)
{
    const auto q5 = topology::ibmQ5Tenerife();
    SyntheticSource a(q5, SyntheticParams{}, 99);
    SyntheticSource b(q5, SyntheticParams{}, 99);
    const Snapshot sa = a.nextCycle();
    const Snapshot sb = b.nextCycle();
    for (std::size_t l = 0; l < sa.numLinks(); ++l)
        EXPECT_DOUBLE_EQ(sa.linkError(l), sb.linkError(l));
    for (int q = 0; q < sa.numQubits(); ++q)
        EXPECT_DOUBLE_EQ(sa.qubit(q).t1Us, sb.qubit(q).t1Us);
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    const auto q5 = topology::ibmQ5Tenerife();
    SyntheticSource a(q5, SyntheticParams{}, 1);
    SyntheticSource b(q5, SyntheticParams{}, 2);
    EXPECT_NE(a.nextCycle().linkError(0),
              b.nextCycle().linkError(0));
}

TEST(Synthetic, PersonalitiesRespectClamp)
{
    const auto q20 = topology::ibmQ20Tokyo();
    SyntheticParams params;
    SyntheticSource src(q20, params, 3);
    for (double p : src.linkPersonalities()) {
        EXPECT_GE(p, params.linkPersonalityMin);
        EXPECT_LE(p, params.linkPersonalityMax);
    }
}

TEST(Synthetic, WorksOnArbitraryTopologies)
{
    for (const auto &graph :
         {topology::linear(8), topology::ring(6),
          topology::grid(3, 3)}) {
        SyntheticSource src(graph, SyntheticParams{}, 11);
        const Snapshot snap = src.nextCycle();
        EXPECT_EQ(snap.numQubits(), graph.numQubits());
        EXPECT_EQ(snap.numLinks(), graph.linkCount());
        EXPECT_NO_THROW(snap.validate());
    }
}

} // namespace
} // namespace vaq::calibration

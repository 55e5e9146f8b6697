#include "common/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace vaq
{
namespace
{

TEST(RunningStats, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_THROW(s.min(), VaqError);
    EXPECT_THROW(s.max(), VaqError);
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownBatch)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic batch is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Statistics, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_THROW(mean({}), VaqError);
}

TEST(Statistics, StddevMatchesRunningStats)
{
    const std::vector<double> xs{1.0, 3.0, 5.0, 7.0};
    RunningStats s;
    for (double x : xs)
        s.add(x);
    EXPECT_NEAR(stddev(xs), s.stddev(), 1e-12);
}

TEST(Statistics, StddevDegenerate)
{
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Statistics, GeomeanKnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    // The paper's Table 3: geomean of the relative benefits.
    EXPECT_NEAR(geomean({1.22, 1.09, 1.90, 1.35}),
                std::pow(1.22 * 1.09 * 1.90 * 1.35, 0.25), 1e-12);
}

TEST(Statistics, GeomeanRejectsBadInput)
{
    EXPECT_THROW(geomean({}), VaqError);
    EXPECT_THROW(geomean({1.0, 0.0}), VaqError);
    EXPECT_THROW(geomean({1.0, -2.0}), VaqError);
}

TEST(Statistics, CoefficientOfVariation)
{
    // CoV matches the two-qubit error stats from the paper's
    // Section 3.3: mean 4.3 %, sigma 3.02 % -> CoV ~= 0.70.
    const std::vector<double> sample{0.013, 0.043, 0.073};
    EXPECT_NEAR(coefficientOfVariation(sample), 0.03 / 0.043,
                1e-9);
    EXPECT_THROW(coefficientOfVariation({0.0, 0.0}), VaqError);
}

} // namespace
} // namespace vaq

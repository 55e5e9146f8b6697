#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace vaq
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.5, 7.5);
        EXPECT_GE(x, -2.5);
        EXPECT_LT(x, 7.5);
    }
}

TEST(Rng, UniformIntCoversAllResidues)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(std::uint64_t{7}));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntIsUnbiased)
{
    Rng rng(17);
    std::vector<int> counts(5, 0);
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.uniformInt(std::uint64_t{5})];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c), trials / 5.0,
                    trials * 0.01);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-0.5));
        EXPECT_TRUE(rng.bernoulli(1.5));
    }
}

TEST(Rng, BernoulliThresholdMatchesBernoulliOnSharedStream)
{
    std::vector<double> ps = {0.0,
                              4.9e-324,
                              0x1.0p-53,
                              0.5,
                              std::nextafter(1.0, 0.0),
                              1.0,
                              std::numeric_limits<double>::quiet_NaN()};
    Rng pick(101);
    for (int i = 0; i < 100'000; ++i) {
        // Half uniform, half log-uniform down to 1e-12.
        ps.push_back(i % 2 == 0 ? pick.uniform()
                                : std::pow(10.0, pick.uniform(-12.0,
                                                              0.0)));
    }

    Rng stream(103);
    std::size_t mismatches = 0, diverged = 0;
    for (const double p : ps) {
        Rng viaBernoulli = stream;
        const bool fired = viaBernoulli.bernoulli(p);
        mismatches +=
            fired != (stream.nextRaw() < Rng::bernoulliThreshold(p));
        // Inside (0, 1), and for NaN, bernoulli consumes exactly the
        // one word the threshold compare consumed.
        if (!(p <= 0.0) && !(p >= 1.0)) {
            Rng probe = stream;
            diverged += viaBernoulli.nextRaw() != probe.nextRaw();
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(diverged, 0u);
}

TEST(Rng, BernoulliThresholdIsTheExactUniformBoundary)
{
    // The last word that fires and the first that does not, read as
    // uniform() would read them.
    const auto asUniform = [](std::uint64_t word) {
        return static_cast<double>(word >> 11) * 0x1.0p-53;
    };
    Rng pick(107);
    std::vector<double> ps = {4.9e-324, 0x1.0p-53, 0.5, 0.1,
                              std::nextafter(1.0, 0.0)};
    for (int i = 0; i < 1000; ++i)
        ps.push_back(std::pow(10.0, pick.uniform(-15.0, 0.0)));
    for (const double p : ps) {
        const std::uint64_t threshold = Rng::bernoulliThreshold(p);
        ASSERT_GT(threshold, 0u) << p;
        EXPECT_LT(asUniform(threshold - 1), p) << p;
        EXPECT_GE(asUniform(threshold), p) << p;
    }
    EXPECT_EQ(Rng::bernoulliThreshold(std::nextafter(1.0, 0.0)),
              ~0ULL - 2047);
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(-0.5), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);
}

TEST(Rng, BernoulliDrawConsumesWhatBernoulliConsumes)
{
    // A compiled draw must give bernoulli(p)'s result and leave the
    // stream where bernoulli(p) leaves it, in every mode: no word at
    // p <= 0 or p >= 1, one word otherwise (NaN included).
    const double edge = 0.25; // threshold exactly 2^62
    const std::vector<double> ps = {
        0.0,
        -0.1,
        std::numeric_limits<double>::quiet_NaN(),
        1.0,
        1.5,
        std::nextafter(edge, 0.0),
        edge,
        std::nextafter(edge, 1.0),
        std::nextafter(1.0, 0.0),
        4.9e-324};
    EXPECT_EQ(BernoulliDraw::compile(0.0).mode,
              BernoulliDraw::Mode::Never);
    EXPECT_EQ(BernoulliDraw::compile(-0.1).mode,
              BernoulliDraw::Mode::Never);
    EXPECT_EQ(BernoulliDraw::compile(1.0).mode,
              BernoulliDraw::Mode::Always);
    EXPECT_EQ(BernoulliDraw::compile(1.5).mode,
              BernoulliDraw::Mode::Always);
    const BernoulliDraw nan =
        BernoulliDraw::compile(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(nan.mode, BernoulliDraw::Mode::Compare);
    EXPECT_EQ(nan.threshold, 0u);
    EXPECT_EQ(BernoulliDraw::compile(edge).threshold, 1ULL << 62);

    for (const double p : ps) {
        const BernoulliDraw draw = BernoulliDraw::compile(p);
        Rng viaBernoulli(211);
        Rng viaDraw(211);
        std::size_t fired = 0;
        for (int i = 0; i < 20'000; ++i) {
            const bool expected = viaBernoulli.bernoulli(p);
            ASSERT_EQ(draw(viaDraw), expected) << p << " draw " << i;
            fired += expected ? 1 : 0;
        }
        EXPECT_EQ(viaDraw.nextRaw(), viaBernoulli.nextRaw()) << p;
        if (p == edge) {
            EXPECT_GT(fired, 0u);
        }
    }

    // One ulp either side of a word's boundary: the draw agrees with
    // bernoulli on the very word that decides it.
    Rng probe(223);
    for (int i = 0; i < 1000; ++i) {
        Rng stream = probe;
        const std::uint64_t word = probe.nextRaw();
        const double u = static_cast<double>(word >> 11) * 0x1.0p-53;
        for (const double p :
             {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
            Rng a = stream;
            Rng b = stream;
            EXPECT_EQ(BernoulliDraw::compile(p)(a), b.bernoulli(p))
                << p;
            EXPECT_EQ(a.nextRaw(), b.nextRaw()) << p;
        }
    }
}

TEST(Rng, GoldenUniformIntStreams)
{
    // Recorded from the out-of-line uniformInt before it moved into
    // the header. uniformInt(3) is the Pauli-kind draw; 2^63 + 1
    // rejects just under half of all words (five of the eleven
    // words below).
    Rng three(17);
    const std::vector<std::uint64_t> picks = {2, 2, 1, 1, 0, 1, 2, 2,
                                              2, 1, 0, 0, 1, 0, 1, 0};
    for (const std::uint64_t expected : picks)
        EXPECT_EQ(three.uniformInt(std::uint64_t{3}), expected);
    EXPECT_EQ(three.nextRaw(), 1667708234081794088ULL);

    Rng wide(13);
    const std::uint64_t n = (1ULL << 63) + 1;
    EXPECT_EQ(wide.uniformInt(n), 5216771479106562934ULL);
    EXPECT_EQ(wide.uniformInt(n), 8539184146565648375ULL);
    EXPECT_EQ(wide.uniformInt(n), 2830716437726855597ULL);
    EXPECT_EQ(wide.uniformInt(n), 1189978561070935922ULL);
    EXPECT_EQ(wide.uniformInt(n), 1687572034273699736ULL);
    EXPECT_EQ(wide.uniformInt(n), 1117901239273758392ULL);
    EXPECT_EQ(wide.nextRaw(), 9017378029270376796ULL);
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(9);
    int hits = 0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(Rng, GaussMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.gauss(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, TruncatedGaussStaysInBounds)
{
    Rng rng(19);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.truncatedGauss(0.0, 5.0, -1.0, 1.0);
        EXPECT_GE(x, -1.0);
        EXPECT_LE(x, 1.0);
    }
}

TEST(Rng, LogNormalIsPositive)
{
    Rng rng(29);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.logNormal(-3.0, 1.0), 0.0);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(31);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = v;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleActuallyPermutes)
{
    Rng rng(37);
    std::vector<int> v(50);
    for (int i = 0; i < 50; ++i)
        v[static_cast<std::size_t>(i)] = i;
    std::vector<int> shuffled = v;
    rng.shuffle(shuffled);
    EXPECT_NE(shuffled, v);
}

TEST(Rng, ChoiceReturnsMember)
{
    Rng rng(41);
    const std::vector<int> v{10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        const int x = rng.choice(v);
        EXPECT_TRUE(x == 10 || x == 20 || x == 30);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(47);
    Rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent() == child())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, SiblingSplitsAreMutuallyIndependent)
{
    // The parallel trial engine derives one stream per chunk by
    // repeated splits of the master seed; sibling streams must not
    // collide or correlate.
    Rng parent(53);
    Rng a = parent.split();
    Rng b = parent.split();
    Rng c = parent.split();
    int equalAb = 0, equalBc = 0;
    for (int i = 0; i < 100; ++i) {
        const auto xa = a(), xb = b(), xc = c();
        equalAb += xa == xb ? 1 : 0;
        equalBc += xb == xc ? 1 : 0;
    }
    EXPECT_LT(equalAb, 3);
    EXPECT_LT(equalBc, 3);
}

TEST(Rng, SiblingSplitMeansStayUniform)
{
    Rng parent(59);
    for (int s = 0; s < 4; ++s) {
        Rng child = parent.split();
        RunningStats stats;
        for (int i = 0; i < 20000; ++i)
            stats.add(child.uniform());
        EXPECT_NEAR(stats.mean(), 0.5, 0.02);
    }
}

TEST(Rng, SplitSequenceIsDeterministic)
{
    Rng parentA(61), parentB(61);
    for (int s = 0; s < 5; ++s) {
        Rng a = parentA.split();
        Rng b = parentB.split();
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(a(), b());
    }
}

TEST(Rng, GoldenStreamOfSeedSeven)
{
    // Recorded from the out-of-line engine before the xoshiro step,
    // uniform() and bernoulli() moved into the header.
    Rng raw(7);
    EXPECT_EQ(raw.nextRaw(), 12923355070828475994ULL);
    EXPECT_EQ(raw.nextRaw(), 5142052590334782674ULL);
    EXPECT_EQ(raw.nextRaw(), 15488392906492639638ULL);
    EXPECT_EQ(raw.nextRaw(), 18098058644649177664ULL);

    Rng uni(7);
    EXPECT_EQ(uni.uniform(), 0x1.66b1f5ee9df2ep-1);
    EXPECT_EQ(uni.uniform(), 0x1.1d70f6593d20ap-2);
    EXPECT_EQ(uni.uniform(), 0x1.ade3a6932a58fp-1);

    Rng parent(7);
    Rng child = parent.split();
    EXPECT_EQ(child.nextRaw(), 2399390100814473381ULL);
    EXPECT_EQ(child.nextRaw(), 9558726101048564188ULL);
    EXPECT_EQ(child.uniform(), 0x1.b3ba06901991ep-1);
    EXPECT_EQ(child.uniform(), 0x1.aaa2eddeeddd8p-2);
    EXPECT_EQ(parent.nextRaw(), 5142052590334782674ULL);
}

} // namespace
} // namespace vaq

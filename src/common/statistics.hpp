/**
 * @file
 * Streaming and batch descriptive statistics.
 *
 * Used throughout the evaluation infrastructure: characterization
 * summaries (Section 3 of the paper), PST aggregation, and the
 * geometric means reported in Table 3.
 */
#ifndef VAQ_COMMON_STATISTICS_HPP
#define VAQ_COMMON_STATISTICS_HPP

#include <cstddef>
#include <vector>

namespace vaq
{

/**
 * Single-pass running statistics using Welford's algorithm.
 *
 * Numerically stable for long Monte-Carlo streams (millions of
 * samples) where the naive sum-of-squares formulation loses
 * precision.
 */
class RunningStats
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Number of samples observed so far. */
    std::size_t count() const { return _count; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return _mean; }

    /** Unbiased sample variance (0 for fewer than two samples). */
    double variance() const;

    /** Unbiased sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen (throws VaqError when empty). */
    double min() const;

    /** Largest sample seen (throws VaqError when empty). */
    double max() const;

  private:
    std::size_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/** Arithmetic mean of a batch (throws VaqError when empty). */
double mean(const std::vector<double> &xs);

/** Unbiased sample standard deviation (0 for fewer than 2 samples). */
double stddev(const std::vector<double> &xs);

/**
 * Geometric mean of strictly positive values (throws VaqError when
 * empty or when any value is <= 0). Matches the "GeoMean" row of the
 * paper's Table 3.
 */
double geomean(const std::vector<double> &xs);

/** Coefficient of variation: stddev / mean (Table 2's "Covariation"). */
double coefficientOfVariation(const std::vector<double> &xs);

} // namespace vaq

#endif // VAQ_COMMON_STATISTICS_HPP

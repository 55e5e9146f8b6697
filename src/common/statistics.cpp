#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vaq
{

void
RunningStats::add(double x)
{
    if (_count == 0) {
        _min = x;
        _max = x;
    } else {
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }
    ++_count;
    const double delta = x - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (x - _mean);
}

double
RunningStats::variance() const
{
    if (_count < 2)
        return 0.0;
    return _m2 / static_cast<double>(_count - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    require(_count > 0, "RunningStats::min on empty accumulator");
    return _min;
}

double
RunningStats::max() const
{
    require(_count > 0, "RunningStats::max on empty accumulator");
    return _max;
}

double
mean(const std::vector<double> &xs)
{
    require(!xs.empty(), "mean of empty vector");
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    RunningStats rs;
    for (double x : xs)
        rs.add(x);
    return rs.stddev();
}

double
geomean(const std::vector<double> &xs)
{
    require(!xs.empty(), "geomean of empty vector");
    double logSum = 0.0;
    for (double x : xs) {
        require(x > 0.0, "geomean requires strictly positive values");
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
coefficientOfVariation(const std::vector<double> &xs)
{
    const double m = mean(xs);
    require(m != 0.0, "coefficient of variation undefined for mean 0");
    return stddev(xs) / m;
}

} // namespace vaq

#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace vaq
{

namespace
{

/** SplitMix64 step, used only for seed expansion. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : _state)
        word = splitMix64(s);
}

double
Rng::uniform(double lo, double hi)
{
    VAQ_ASSERT(lo <= hi, "uniform bounds inverted");
    return lo + (hi - lo) * uniform();
}

double
Rng::gauss()
{
    if (_hasSpare) {
        _hasSpare = false;
        return _spare;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    _spare = r * std::sin(theta);
    _hasSpare = true;
    return r * std::cos(theta);
}

double
Rng::gauss(double mean, double stddev)
{
    return mean + stddev * gauss();
}

double
Rng::truncatedGauss(double mean, double stddev, double lo, double hi)
{
    VAQ_ASSERT(lo <= hi, "truncatedGauss bounds inverted");
    for (int attempt = 0; attempt < 256; ++attempt) {
        const double x = gauss(mean, stddev);
        if (x >= lo && x <= hi)
            return x;
    }
    const double x = gauss(mean, stddev);
    return std::min(hi, std::max(lo, x));
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(gauss(mu, sigma));
}

Rng
Rng::split()
{
    return Rng(nextRaw());
}

} // namespace vaq

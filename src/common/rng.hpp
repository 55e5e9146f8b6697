/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Every stochastic component in libvaq (fault injection, synthetic
 * calibration data, randomized mappers) draws from an explicitly
 * seeded Rng instance so that experiments are exactly reproducible.
 * The engine is xoshiro256** (Blackman & Vigna), which is fast, has a
 * 2^256-1 period, and passes BigCrush; seeds are expanded with
 * SplitMix64 as its authors recommend.
 */
#ifndef VAQ_COMMON_RNG_HPP
#define VAQ_COMMON_RNG_HPP

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace vaq
{

/**
 * Seedable xoshiro256** engine with convenience distributions.
 *
 * Satisfies the C++ UniformRandomBitGenerator requirements so it can
 * also be plugged into <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit word (one xoshiro256** step). */
    std::uint64_t
    nextRaw()
    {
        const std::uint64_t result = std::rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;

        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = std::rotl(_state[3], 45);

        return result;
    }

    /** Next raw 64-bit word. */
    result_type operator()() { return nextRaw(); }

    /** Uniform double in [0, 1): the 53 high bits of one word. */
    double
    uniform()
    {
        return static_cast<double>(nextRaw() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. Inline, so a
     *  constant n folds the rejection bound and the modulo. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        VAQ_ASSERT(n > 0, "uniformInt(0) is undefined");
        // Lemire-style rejection to kill modulo bias.
        const std::uint64_t threshold = (~n + 1) % n;
        for (;;) {
            std::uint64_t r = nextRaw();
            if (r >= threshold)
                return r % n;
        }
    }

    /**
     * Bernoulli trial: true with probability p (clamped to [0,1]).
     * p <= 0 and p >= 1 decide without consuming a draw; any other
     * p, NaN included, consumes exactly one.
     */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Raw-word threshold of bernoulli(p): for p in (0, 1),
     *
     *     uniform() < p   <=>   nextRaw() < ceil(p * 2^53) * 2^11.
     *
     * uniform() tests k * 2^-53 < p on the word's high 53 bits
     * k = r >> 11. Scaling by 2^53 is exact, so that is k <
     * ceil(p * 2^53) for the integer k, which is r < ceil(p * 2^53)
     * << 11. p < 1 keeps ceil(p * 2^53) <= 2^53 - 1, so the
     * threshold stays below 2^64. NaN and p <= 0 give 0 (never
     * fires). p >= 1 has no exact threshold: bernoulli fires
     * without a draw there, so it returns max() and callers go
     * through BernoulliDraw, which handles that case.
     */
    static std::uint64_t
    bernoulliThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return max();
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))
               << 11;
    }

    /** Standard normal via Box-Muller (cached spare). */
    double gauss();

    /** Normal with the given mean and standard deviation. */
    double gauss(double mean, double stddev);

    /**
     * Normal draw rejected-and-retried until it lands in [lo, hi].
     * Falls back to clamping after 256 rejections so pathological
     * bounds cannot hang the caller.
     */
    double truncatedGauss(double mean, double stddev, double lo,
                          double hi);

    /** Log-normal: exp of N(mu, sigma) in log space. */
    double logNormal(double mu, double sigma);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(static_cast<std::uint64_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Pick a uniformly random element (container must be non-empty). */
    template <typename T>
    const T &
    choice(const std::vector<T> &v)
    {
        return v[uniformInt(static_cast<std::uint64_t>(v.size()))];
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng split();

  private:
    std::array<std::uint64_t, 4> _state;
    double _spare = 0.0;
    bool _hasSpare = false;
};

/**
 * Rng::bernoulli(p) compiled once for a fixed p. Calling the draw
 * consumes the same words and returns the same result as
 * bernoulli(p) on the same stream; only the float compare becomes
 * a raw-word compare against bernoulliThreshold(p). Both trial
 * kernels (sim::detail::compileThresholds and the Pauli-frame fault
 * draws) compile their probabilities through it.
 */
struct BernoulliDraw
{
    enum class Mode : std::uint8_t
    {
        Never,  ///< p <= 0: false, no word drawn
        Always, ///< p >= 1: true, no word drawn
        Compare ///< one word against the threshold (NaN: 0, never)
    };

    Mode mode = Mode::Never;
    std::uint64_t threshold = 0;

    static BernoulliDraw
    compile(double p)
    {
        if (p <= 0.0)
            return {Mode::Never, 0};
        if (p >= 1.0)
            return {Mode::Always, 0};
        return {Mode::Compare, Rng::bernoulliThreshold(p)};
    }

    bool
    operator()(Rng &rng) const
    {
        if (mode == Mode::Compare)
            return rng.nextRaw() < threshold;
        return mode == Mode::Always;
    }
};

} // namespace vaq

#endif // VAQ_COMMON_RNG_HPP

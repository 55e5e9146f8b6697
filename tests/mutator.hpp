/**
 * @file
 * Seeded byte mutator for parser robustness tests.
 *
 * Four operations, chosen and placed by a caller-seeded Rng so every
 * mutant is reproducible from (fixture, index):
 *
 *  - bit flip: XOR one random bit of one byte;
 *  - truncation: cut the text at a random offset;
 *  - token duplication: repeat one token (a run of identifier or
 *    number characters, or one punctuation byte) in place;
 *  - line splice: insert a line taken from a donor text at a random
 *    line boundary.
 *
 * Only Rng::nextRaw drives the choices (no std distributions), so the
 * mutants are the same on every standard library.
 */
#ifndef VAQ_TESTS_MUTATOR_HPP
#define VAQ_TESTS_MUTATOR_HPP

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace vaq::test
{

enum class Mutation
{
    BitFlip,
    Truncate,
    DuplicateToken,
    SpliceLine,
};

inline constexpr int kMutationKinds = 4;

/** Uniform-enough index in [0, n) from one raw word; n > 0. */
inline std::size_t
pick(Rng &rng, std::size_t n)
{
    return static_cast<std::size_t>(rng.nextRaw() % n);
}

namespace detail
{

inline bool
isTokenChar(char c)
{
    const auto u = static_cast<unsigned char>(c);
    return std::isalnum(u) || c == '_' || c == '.';
}

/** [begin, end) of every line of `text`, newline excluded. */
inline std::vector<std::string_view>
lines(std::string_view text)
{
    std::vector<std::string_view> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::size_t end = nl == std::string_view::npos ? text.size()
                                                             : nl;
        out.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

} // namespace detail

/** Apply one mutation of the given kind in place. */
inline void
applyMutation(std::string &text, Mutation kind, Rng &rng,
              const std::vector<std::string> &donors)
{
    switch (kind) {
      case Mutation::BitFlip: {
        if (text.empty())
            return;
        const std::size_t pos = pick(rng, text.size());
        text[pos] = static_cast<char>(
            static_cast<unsigned char>(text[pos]) ^ (1u << pick(rng, 8)));
        return;
      }
      case Mutation::Truncate:
        text.resize(pick(rng, text.size() + 1));
        return;
      case Mutation::DuplicateToken: {
        if (text.empty())
            return;
        std::size_t begin = pick(rng, text.size());
        while (begin < text.size() &&
               std::isspace(static_cast<unsigned char>(text[begin])))
            ++begin;
        if (begin == text.size())
            return;
        std::size_t end = begin + 1;
        if (detail::isTokenChar(text[begin])) {
            while (begin > 0 && detail::isTokenChar(text[begin - 1]))
                --begin;
            while (end < text.size() && detail::isTokenChar(text[end]))
                ++end;
        }
        text.insert(end, text.substr(begin, end - begin));
        return;
      }
      case Mutation::SpliceLine: {
        if (donors.empty())
            return;
        const auto donorLines =
            detail::lines(donors[pick(rng, donors.size())]);
        if (donorLines.empty())
            return;
        std::string line(donorLines[pick(rng, donorLines.size())]);
        line += '\n';
        std::vector<std::size_t> boundaries{0};
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (text[i] == '\n')
                boundaries.push_back(i + 1);
        }
        text.insert(boundaries[pick(rng, boundaries.size())], line);
        return;
      }
    }
}

/**
 * One mutant of `text`: one to three stacked mutations, each kind
 * equally likely. `donors` supplies spliced lines (commonly the whole
 * fixture corpus, `text` included).
 */
inline std::string
mutate(std::string text, Rng &rng, const std::vector<std::string> &donors)
{
    const std::size_t steps = 1 + pick(rng, 3);
    for (std::size_t s = 0; s < steps; ++s) {
        applyMutation(text,
                      static_cast<Mutation>(pick(rng, kMutationKinds)),
                      rng, donors);
    }
    return text;
}

} // namespace vaq::test

#endif // VAQ_TESTS_MUTATOR_HPP

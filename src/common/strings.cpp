#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace vaq
{

std::string_view
trimView(std::string_view s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(s[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

std::string
trim(std::string_view s)
{
    return std::string(trimView(s));
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
formatDouble(double x, int precision)
{
    char buffer[64];
    auto result = std::to_chars(buffer, buffer + sizeof buffer, x,
                                std::chars_format::fixed, precision);
    if (result.ec == std::errc())
        return std::string(buffer, result.ptr);
    // Huge magnitudes: sign, up to 309 integer digits, point.
    std::string out(
        312 + static_cast<std::size_t>(std::max(precision, 0)), '\0');
    result = std::to_chars(out.data(), out.data() + out.size(), x,
                           std::chars_format::fixed, precision);
    out.resize(static_cast<std::size_t>(result.ptr - out.data()));
    return out;
}

double
parseDouble(std::string_view s)
{
    const std::string_view text = trimView(s);
    require(!text.empty(), "cannot parse empty string as double");
    // strtod needs a terminated copy; text as short as any number
    // the writers emit stays on the stack.
    char buffer[64];
    std::string heap;
    const char *begin = buffer;
    if (text.size() < sizeof buffer) {
        std::memcpy(buffer, text.data(), text.size());
        buffer[text.size()] = '\0';
    } else {
        heap.assign(text);
        begin = heap.c_str();
    }
    char *end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end != begin + text.size())
        throw VaqError("malformed double: '" + std::string(text) + "'");
    return value;
}

std::size_t
parseSize(std::string_view s)
{
    const std::string_view text = trimView(s);
    require(!text.empty(), "cannot parse empty string as integer");
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size())
        throw VaqError("malformed integer: '" + std::string(text) + "'");
    return value;
}

} // namespace vaq

/**
 * @file
 * Small string utilities shared by the QASM parser, the CSV loaders
 * and the table/report printers.
 */
#ifndef VAQ_COMMON_STRINGS_HPP
#define VAQ_COMMON_STRINGS_HPP

#include <string>
#include <string_view>
#include <vector>

namespace vaq
{

/** Strip leading and trailing whitespace (std::isspace). */
std::string_view trimView(std::string_view s);

/** trimView() copied into a string. */
std::string trim(std::string_view s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** True when `s` starts with `prefix`. */
bool startsWith(std::string_view s, std::string_view prefix);

/**
 * Fixed-precision decimal rendering (no scientific notation): the
 * bytes of printf("%.*f") in the C locale, via std::to_chars.
 */
std::string formatDouble(double x, int precision);

/**
 * Parse a double, throwing VaqError (with the offending text in the
 * message) instead of silently returning 0 like atof.
 */
double parseDouble(std::string_view s);

/** Parse a non-negative integer with the same error behaviour. */
std::size_t parseSize(std::string_view s);

} // namespace vaq

#endif // VAQ_COMMON_STRINGS_HPP

#include "common/table.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace vaq
{

TextTable::TextTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
    require(!_headers.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    require(row.size() == _headers.size(),
            "table row arity mismatch");
    _rows.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(_headers.size(), 0);
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream oss;
    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << row[c];
            if (c + 1 < row.size()) {
                oss << std::string(widths[c] - row[c].size() + 2,
                                   ' ');
            }
        }
        oss << "\n";
    };

    emitRow(_headers);
    std::size_t ruleLen = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        ruleLen += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    oss << std::string(ruleLen, '-') << "\n";
    for (const auto &row : _rows)
        emitRow(row);
    return oss.str();
}

std::string
TextTable::renderCsv() const
{
    auto quote = [](const std::string &field) {
        if (field.find_first_of(",\"\n") == std::string::npos)
            return field;
        std::string out = "\"";
        for (char ch : field) {
            if (ch == '"')
                out += '"';
            out += ch;
        }
        out += '"';
        return out;
    };

    std::ostringstream oss;
    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << quote(row[c]);
            if (c + 1 < row.size())
                oss << ",";
        }
        oss << "\n";
    };
    emitRow(_headers);
    for (const auto &row : _rows)
        emitRow(row);
    return oss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        throw VaqError("cannot open for write: " + path);
    out << text;
    if (!out)
        throw VaqError("write failed: " + path);
}

} // namespace vaq

#include "obs/export.hpp"

#include <iomanip>
#include <sstream>

#include "common/json.hpp"
#include "common/table.hpp"

namespace vaq::obs
{

namespace
{

/** Deterministic shortest-ish double rendering for all formats. */
std::string
num(double x)
{
    std::ostringstream out;
    out << std::setprecision(12) << x;
    return out.str();
}

/** Split `base{label="x"}` into {base, `label="x"`} ("" if none). */
std::pair<std::string, std::string>
splitLabels(const std::string &name)
{
    auto open = name.find('{');
    if (open == std::string::npos || name.back() != '}')
        return {name, ""};
    return {name.substr(0, open),
            name.substr(open + 1, name.size() - open - 2)};
}

/** Prometheus metric name: vaq_ prefix, dots/dashes -> underscores. */
std::string
promName(const std::string &base)
{
    std::string out = "vaq_";
    for (char c : base) {
        bool ok = (c >= 'a' && c <= 'z') ||
                  (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
promSeries(const std::string &base, const std::string &labels,
           const std::string &extraLabel = "")
{
    std::string out = promName(base);
    std::string joined = labels;
    if (!extraLabel.empty()) {
        if (!joined.empty())
            joined += ",";
        joined += extraLabel;
    }
    if (!joined.empty())
        out += "{" + joined + "}";
    return out;
}

} // namespace

std::string
exportJson(const MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : snapshot.counters) {
        out << (first ? "" : ",") << "\n    "
            << json::quoted(name) << ": " << value;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : snapshot.gauges) {
        out << (first ? "" : ",") << "\n    "
            << json::quoted(name) << ": " << num(value);
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : snapshot.histograms) {
        out << (first ? "" : ",") << "\n    " << json::quoted(name)
            << ": {\n"
            << "      \"count\": " << h.count << ",\n"
            << "      \"sum\": " << num(h.sum) << ",\n"
            << "      \"mean\": " << num(h.mean) << ",\n"
            << "      \"min\": " << num(h.min) << ",\n"
            << "      \"max\": " << num(h.max) << ",\n"
            << "      \"bounds\": [";
        for (std::size_t i = 0; i < h.bounds.size(); ++i)
            out << (i ? ", " : "") << num(h.bounds[i]);
        out << "],\n      \"counts\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i)
            out << (i ? ", " : "") << h.counts[i];
        out << "]\n    }";
        first = false;
    }
    out << (first ? "" : "\n  ") << "}\n}\n";
    return out.str();
}

std::string
exportCsv(const MetricsSnapshot &snapshot)
{
    TextTable table({"kind", "name", "field", "value"});
    for (const auto &[name, value] : snapshot.counters)
        table.addRow(
            {"counter", name, "value", std::to_string(value)});
    for (const auto &[name, value] : snapshot.gauges)
        table.addRow({"gauge", name, "value", num(value)});
    for (const auto &[name, h] : snapshot.histograms) {
        table.addRow({"histogram", name, "count",
                      std::to_string(h.count)});
        table.addRow({"histogram", name, "sum", num(h.sum)});
        table.addRow({"histogram", name, "mean", num(h.mean)});
        table.addRow({"histogram", name, "min", num(h.min)});
        table.addRow({"histogram", name, "max", num(h.max)});
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            std::string bound = i < h.bounds.size()
                                    ? num(h.bounds[i])
                                    : "+Inf";
            table.addRow({"histogram", name, "le=" + bound,
                          std::to_string(h.counts[i])});
        }
    }
    return table.renderCsv();
}

std::string
exportPrometheus(const MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    for (const auto &[name, value] : snapshot.counters) {
        auto [base, labels] = splitLabels(name);
        out << "# TYPE " << promName(base) << " counter\n"
            << promSeries(base, labels) << " " << value << "\n";
    }
    for (const auto &[name, value] : snapshot.gauges) {
        auto [base, labels] = splitLabels(name);
        out << "# TYPE " << promName(base) << " gauge\n"
            << promSeries(base, labels) << " " << num(value)
            << "\n";
    }
    for (const auto &[name, h] : snapshot.histograms) {
        auto [base, labels] = splitLabels(name);
        out << "# TYPE " << promName(base) << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            cumulative += h.counts[i];
            std::string bound = i < h.bounds.size()
                                    ? num(h.bounds[i])
                                    : "+Inf";
            out << promSeries(base + "_bucket", labels,
                              "le=\"" + bound + "\"")
                << " " << cumulative << "\n";
        }
        out << promSeries(base + "_sum", labels) << " "
            << num(h.sum) << "\n"
            << promSeries(base + "_count", labels) << " "
            << h.count << "\n";
    }
    return out.str();
}

std::string
exportTraceJson(const std::vector<SpanRecord> &spans)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out << (i ? "," : "") << "\n  {\"name\": "
            << json::quoted(s.name) << ", \"id\": " << s.id
            << ", \"parent\": " << s.parentId
            << ", \"thread\": " << s.threadIndex
            << ", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"seconds\": " << num(s.seconds()) << "}";
    }
    out << (spans.empty() ? "" : "\n") << "]\n";
    return out.str();
}

} // namespace vaq::obs

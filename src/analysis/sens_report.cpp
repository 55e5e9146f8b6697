#include "analysis/sens_report.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/strings.hpp"

namespace vaq::analysis
{

std::string
renderSensText(const SensReport &report)
{
    const SensitivityProfile &profile = report.profile;
    const double total = profile.totalMass();
    std::ostringstream oss;
    oss << "sensitivity: " << report.artifact << "\n";
    oss << "log-PST   : " << formatDouble(profile.logPst, 6)
        << " (PST " << formatDouble(profile.pst(), 5) << ", "
        << profile.opCount << " ops, " << profile.qubits.size()
        << " qubits, " << profile.links.size() << " links)\n";
    oss << "params    : rank  site          param    value      "
           "dlogPST/dp   mass      share\n";
    std::size_t rank = 0;
    for (const SensitivityTerm &row : profile.rankedTerms()) {
        ++rank;
        std::ostringstream line;
        line << "  " << rank << "  " << row.site() << " "
             << paramName(row.kind) << "  "
             << formatDouble(row.value, 5) << "  "
             << formatDouble(row.coefficient, 4) << "  "
             << formatDouble(row.mass, 6) << "  "
             << formatDouble(
                    total > 0.0 ? 100.0 * row.mass / total : 0.0, 1)
             << "%";
        oss << line.str() << "\n";
    }
    if (report.hasAssessment) {
        const StalenessAssessment &a = report.assessment;
        oss << "staleness : ";
        if (!a.certifiable) {
            oss << "not certifiable (model premises changed; "
                   "recompile)\n";
        } else {
            oss << "certified |dlogPST| <= "
                << formatDouble(a.bound(), 8) << " (first-order "
                << formatDouble(a.firstOrder, 8) << ", slack "
                << formatDouble(a.secondOrder + a.fpSlack, 10)
                << "), exact shift "
                << formatDouble(a.deltaLogPst, 8) << "\n";
            oss << "verdict   : "
                << (a.within(report.stalenessTol)
                        ? "REUSE (bound within tolerance "
                        : "RECOMPILE (bound exceeds tolerance ")
                << formatDouble(report.stalenessTol, 6) << ")\n";
        }
    }
    return oss.str();
}

json::Value
sensitivityJson(const SensitivityProfile &profile,
                std::size_t top_k)
{
    json::Value block = json::Value::object();
    block.set("logPst", json::Value::number(profile.logPst));
    block.set("pst", json::Value::number(profile.pst()));
    block.set("opCount", json::Value::number(profile.opCount));
    block.set("totalMass",
              json::Value::number(profile.totalMass()));
    json::Value params = json::Value::array();
    const std::vector<SensitivityTerm> rows = profile.rankedTerms();
    const std::size_t limit =
        top_k == 0 ? rows.size() : std::min(top_k, rows.size());
    for (std::size_t i = 0; i < limit; ++i) {
        const SensitivityTerm &row = rows[i];
        json::Value item = json::Value::object();
        item.set("parameter",
                 json::Value::string(paramName(row.kind)));
        if (row.kind == ParamKind::Error2q) {
            item.set("link", json::Value::number(row.index));
            item.set("q0", json::Value::number(
                               static_cast<std::int64_t>(row.q0)));
            item.set("q1", json::Value::number(
                               static_cast<std::int64_t>(row.q1)));
        } else {
            item.set("qubit", json::Value::number(row.index));
        }
        item.set("count", json::Value::number(row.count));
        item.set("value", json::Value::number(row.value));
        item.set("coefficient",
                 json::Value::number(row.coefficient));
        item.set("mass", json::Value::number(row.mass));
        params.push(std::move(item));
    }
    block.set("parameters", std::move(params));
    return block;
}

std::string
renderSensJson(const SensReport &report)
{
    json::Value root = json::Value::object();
    root.set("artifact", json::Value::string(report.artifact));
    root.set("profile", sensitivityJson(report.profile, 0));
    if (report.hasAssessment) {
        const StalenessAssessment &a = report.assessment;
        json::Value staleness = json::Value::object();
        staleness.set("certifiable",
                      json::Value::boolean(a.certifiable));
        staleness.set("anyDelta",
                      json::Value::boolean(a.anyDelta));
        if (a.certifiable) {
            staleness.set("bound", json::Value::number(a.bound()));
            staleness.set("firstOrder",
                          json::Value::number(a.firstOrder));
            staleness.set("secondOrder",
                          json::Value::number(a.secondOrder));
            staleness.set("fpSlack",
                          json::Value::number(a.fpSlack));
            staleness.set("deltaLogPst",
                          json::Value::number(a.deltaLogPst));
        }
        staleness.set("tolerance",
                      json::Value::number(report.stalenessTol));
        staleness.set(
            "reuse",
            json::Value::boolean(a.within(report.stalenessTol)));
        root.set("staleness", std::move(staleness));
    }
    return json::writePretty(root);
}

} // namespace vaq::analysis

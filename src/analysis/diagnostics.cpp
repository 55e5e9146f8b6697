#include "analysis/diagnostics.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace vaq::analysis
{

namespace
{

/** SARIF result level for a severity. */
const char *
sarifLevel(Severity severity)
{
    switch (severity) {
    case Severity::Info:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "none";
}

} // namespace

FailOn
failOnFromName(const std::string &name)
{
    if (name == "never")
        return FailOn::Never;
    if (name == "error")
        return FailOn::Error;
    if (name == "warning")
        return FailOn::Warning;
    throw VaqError("unknown fail-on threshold '" + name +
                   "' (never | error | warning)");
}

std::size_t
LintReport::countOf(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &diag : diagnostics) {
        if (diag.severity == severity)
            ++n;
    }
    return n;
}

bool
LintReport::shouldFail(FailOn fail_on) const
{
    switch (fail_on) {
    case FailOn::Never:
        return false;
    case FailOn::Error:
        return errorCount() > 0;
    case FailOn::Warning:
        return errorCount() > 0 || warningCount() > 0;
    }
    return false;
}

std::string
LintReport::summary() const
{
    const std::size_t errors = errorCount();
    const std::size_t warnings = warningCount();
    std::ostringstream oss;
    oss << errors << (errors == 1 ? " error, " : " errors, ")
        << warnings << (warnings == 1 ? " warning" : " warnings");
    return oss.str();
}

std::string
renderText(const LintReport &report)
{
    std::ostringstream oss;
    for (const Diagnostic &diag : report.diagnostics) {
        oss << report.artifact;
        if (diag.line > 0)
            oss << ":" << diag.line;
        oss << ": " << severityName(diag.severity) << ": ["
            << diag.ruleId << "] " << diag.message;
        if (diag.gateIndex >= 0)
            oss << " (gate " << diag.gateIndex << ")";
        oss << "\n";
    }
    if (report.diagnostics.empty())
        oss << report.artifact << ": clean (" << report.rules.size()
            << " rules)\n";
    else
        oss << report.summary() << "\n";
    return oss.str();
}

std::string
renderJson(const LintReport &report)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"artifact\": " << json::quoted(report.artifact) << ",\n";
    oss << "  \"errors\": " << report.errorCount() << ",\n";
    oss << "  \"warnings\": " << report.warningCount() << ",\n";
    oss << "  \"rules\": [\n";
    for (std::size_t i = 0; i < report.rules.size(); ++i) {
        const RuleInfo &rule = report.rules[i];
        oss << "    {\"id\": " << json::quoted(rule.id)
            << ", \"name\": " << json::quoted(rule.name)
            << ", \"severity\": "
            << json::quoted(severityName(rule.severity))
            << ", \"category\": "
            << json::quoted(ruleCategoryName(rule.category)) << "}"
            << (i + 1 < report.rules.size() ? "," : "") << "\n";
    }
    oss << "  ],\n";
    oss << "  \"diagnostics\": [\n";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &diag = report.diagnostics[i];
        oss << "    {\"rule\": " << json::quoted(diag.ruleId)
            << ", \"severity\": "
            << json::quoted(severityName(diag.severity))
            << ", \"gate\": " << diag.gateIndex
            << ", \"qubit\": " << diag.qubit;
        if (diag.qubit2 >= 0)
            oss << ", \"qubit2\": " << diag.qubit2;
        if (diag.line > 0)
            oss << ", \"line\": " << diag.line;
        oss << ", \"message\": " << json::quoted(diag.message) << "}"
            << (i + 1 < report.diagnostics.size() ? "," : "")
            << "\n";
    }
    oss << "  ]\n";
    oss << "}\n";
    return oss.str();
}

std::string
renderSarif(const LintReport &report)
{
    std::ostringstream oss;
    oss << "{\n";
    oss << "  \"$schema\": \"https://raw.githubusercontent.com/"
           "oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json\",\n";
    oss << "  \"version\": \"2.1.0\",\n";
    oss << "  \"runs\": [\n";
    oss << "    {\n";
    oss << "      \"tool\": {\n";
    oss << "        \"driver\": {\n";
    oss << "          \"name\": \"vaq_lint\",\n";
    oss << "          \"version\": \"1.0.0\",\n";
    oss << "          \"informationUri\": "
           "\"https://github.com/libvaq/libvaq\",\n";
    oss << "          \"rules\": [\n";
    for (std::size_t i = 0; i < report.rules.size(); ++i) {
        const RuleInfo &rule = report.rules[i];
        oss << "            {\"id\": " << json::quoted(rule.id)
            << ", \"name\": " << json::quoted(rule.name)
            << ", \"shortDescription\": {\"text\": "
            << json::quoted(rule.description) << "}"
            << ", \"defaultConfiguration\": {\"level\": "
            << json::quoted(sarifLevel(rule.severity)) << "}"
            << ", \"properties\": {\"category\": "
            << json::quoted(ruleCategoryName(rule.category)) << "}}"
            << (i + 1 < report.rules.size() ? "," : "") << "\n";
    }
    oss << "          ]\n";
    oss << "        }\n";
    oss << "      },\n";
    oss << "      \"results\": [\n";
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &diag = report.diagnostics[i];
        // ruleIndex into the rules array above.
        long ruleIndex = -1;
        for (std::size_t r = 0; r < report.rules.size(); ++r) {
            if (report.rules[r].id == diag.ruleId) {
                ruleIndex = static_cast<long>(r);
                break;
            }
        }
        oss << "        {\"ruleId\": " << json::quoted(diag.ruleId);
        if (ruleIndex >= 0)
            oss << ", \"ruleIndex\": " << ruleIndex;
        oss << ", \"level\": "
            << json::quoted(sarifLevel(diag.severity))
            << ", \"message\": {\"text\": "
            << json::quoted(diag.message) << "},\n";
        oss << "         \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": "
            << json::quoted(report.artifact)
            << "}, \"region\": {\"startLine\": "
            << (diag.line > 0 ? diag.line : 1) << "}}";
        if (diag.gateIndex >= 0) {
            oss << ", \"logicalLocations\": [{\"name\": \"gate["
                << diag.gateIndex
                << "]\", \"kind\": \"instruction\"}]";
        }
        oss << "}]}"
            << (i + 1 < report.diagnostics.size() ? "," : "")
            << "\n";
    }
    oss << "      ]\n";
    oss << "    }\n";
    oss << "  ]\n";
    oss << "}\n";
    return oss.str();
}

} // namespace vaq::analysis

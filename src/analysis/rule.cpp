#include "analysis/rule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vaq::analysis
{

const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Info:
        return "info";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "unknown";
}

const char *
ruleCategoryName(RuleCategory category)
{
    switch (category) {
    case RuleCategory::Usage:
        return "usage";
    case RuleCategory::Correctness:
        return "correctness";
    case RuleCategory::Structure:
        return "structure";
    case RuleCategory::Reliability:
        return "reliability";
    }
    return "unknown";
}

Diagnostic
AnalysisRule::make(const LintContext &context, std::string message,
                   long gate_index, int qubit, int qubit2) const
{
    Diagnostic diag;
    diag.ruleId = id();
    diag.ruleName = name();
    diag.severity = severity();
    diag.category = category();
    diag.message = std::move(message);
    diag.gateIndex = gate_index;
    diag.qubit = qubit;
    diag.qubit2 = qubit2;
    if (gate_index >= 0)
        diag.line =
            context.lineOf(static_cast<std::size_t>(gate_index));
    return diag;
}

void
RuleRegistry::add(Factory factory)
{
    const std::unique_ptr<AnalysisRule> probe = factory();
    VAQ_ASSERT(probe != nullptr, "rule factory returned null");
    const std::string id = probe->id();
    const std::string name = probe->name();
    for (const Entry &entry : _entries) {
        if (entry.id == id || entry.name == name) {
            throw VaqError("duplicate lint rule registration: " + id +
                           " (" + name + ")");
        }
    }
    _entries.push_back(
        Entry{id, name, std::move(factory)});
    std::stable_sort(_entries.begin(), _entries.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.id < b.id;
                     });
}

std::vector<std::unique_ptr<AnalysisRule>>
RuleRegistry::makeAll() const
{
    std::vector<std::unique_ptr<AnalysisRule>> rules;
    rules.reserve(_entries.size());
    for (const Entry &entry : _entries)
        rules.push_back(entry.factory());
    return rules;
}

std::vector<std::string>
RuleRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (const Entry &entry : _entries)
        out.push_back(entry.id);
    return out;
}

bool
RuleRegistry::known(const std::string &key) const
{
    return std::any_of(_entries.begin(), _entries.end(),
                       [&key](const Entry &entry) {
                           return entry.id == key ||
                                  entry.name == key;
                       });
}

RuleRegistry &
RuleRegistry::global()
{
    static RuleRegistry *registry = [] {
        auto *r = new RuleRegistry();
        registerBuiltinRules(*r);
        return r;
    }();
    return *registry;
}

} // namespace vaq::analysis

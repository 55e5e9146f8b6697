#include "analysis/linter.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace vaq::analysis
{

namespace
{

bool
matches(const AnalysisRule &rule, const std::string &key)
{
    return rule.id() == key || rule.name() == key;
}

} // namespace

Linter::Linter(LintOptions options) : _options(std::move(options))
{
    const RuleRegistry &registry = RuleRegistry::global();
    for (const std::string &key : _options.disabled) {
        if (!registry.known(key))
            throw VaqError("unknown lint rule to disable: '" + key + "'");
    }
    for (const std::string &key : _options.enabledOnly) {
        if (!registry.known(key))
            throw VaqError("unknown lint rule to enable: '" + key + "'");
    }

    std::vector<std::unique_ptr<AnalysisRule>> all =
        registry.makeAll();
    for (std::unique_ptr<AnalysisRule> &rule : all) {
        const auto namedIn =
            [&rule](const std::vector<std::string> &keys) {
                return std::any_of(
                    keys.begin(), keys.end(),
                    [&rule](const std::string &key) {
                        return matches(*rule, key);
                    });
            };
        if (!_options.enabledOnly.empty() &&
            !namedIn(_options.enabledOnly))
            continue;
        if (namedIn(_options.disabled))
            continue;
        _rules.push_back(std::move(rule));
    }
}

std::vector<std::string>
Linter::ruleIds() const
{
    std::vector<std::string> ids;
    ids.reserve(_rules.size());
    for (const std::unique_ptr<AnalysisRule> &rule : _rules)
        ids.push_back(rule->id());
    return ids;
}

LintReport
Linter::run(const LintInput &input) const
{
    require(input.circuit != nullptr,
            "lint input needs a circuit");
    obs::ScopedTimer timer("analysis.lint.seconds");

    const calibration::GateDurations durations =
        input.snapshot != nullptr
            ? input.snapshot->durations
            : calibration::GateDurations{};
    const DataflowAnalysis dataflow(*input.circuit, durations);

    LintContext context{*input.circuit,
                        dataflow,
                        input.physical,
                        input.graph,
                        input.snapshot,
                        input.baselineSnapshot,
                        input.linkVariance,
                        input.gateLines,
                        _options.params};

    LintReport report;
    report.artifact = input.artifact;
    report.rules.reserve(_rules.size());
    for (const std::unique_ptr<AnalysisRule> &rule : _rules) {
        report.rules.push_back(RuleInfo{
            rule->id(), rule->name(), rule->severity(),
            rule->category(), rule->description()});
        rule->run(context, report.diagnostics);
    }

    std::stable_sort(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            if (a.gateIndex != b.gateIndex)
                return a.gateIndex < b.gateIndex;
            if (a.ruleId != b.ruleId)
                return a.ruleId < b.ruleId;
            return a.qubit < b.qubit;
        });

    if (obs::enabled()) {
        obs::count("analysis.runs");
        obs::count("analysis.diagnostics.emitted",
                   report.diagnostics.size());
        const std::size_t errors = report.errorCount();
        const std::size_t warnings = report.warningCount();
        if (errors > 0)
            obs::count("analysis.diagnostics.error", errors);
        if (warnings > 0)
            obs::count("analysis.diagnostics.warning", warnings);
        const std::size_t infos = report.countOf(Severity::Info);
        if (infos > 0)
            obs::count("analysis.diagnostics.info", infos);
    }
    return report;
}

LintReport
Linter::lint(const circuit::Circuit &logical,
             const topology::CouplingGraph *graph,
             const calibration::Snapshot *snapshot) const
{
    LintInput input;
    input.circuit = &logical;
    input.graph = graph;
    input.snapshot = snapshot;
    return run(input);
}

LintReport
Linter::lintPhysical(const circuit::Circuit &physical,
                     const topology::CouplingGraph &graph,
                     const calibration::Snapshot *snapshot) const
{
    LintInput input;
    input.circuit = &physical;
    input.physical = true;
    input.graph = &graph;
    input.snapshot = snapshot;
    input.artifact = "<mapped>";
    return run(input);
}

} // namespace vaq::analysis

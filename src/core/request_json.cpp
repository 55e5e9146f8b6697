/**
 * @file
 * Deterministic JSON forms of PolicySpec / CompileRequest /
 * CompileResult (declared in core/compile_request.hpp).
 *
 * These are the daemon's wire format and the golden-test fixture
 * format, so the writer must be byte-stable: members are emitted in
 * a fixed order and numbers go through common/json.hpp's
 * shortest-round-trip printer. The circuit travels embedded as
 * QASM text (the repository's canonical circuit interchange form);
 * layouts travel as program->physical integer arrays and are empty
 * for the 1x1 placeholder a failed compile carries.
 */
#include "core/compile_request.hpp"

#include <utility>

#include "analysis/diagnostics.hpp"
#include "circuit/qasm.hpp"
#include "sim/sim_engine.hpp"

namespace vaq::core
{

namespace
{

const char *
failOnName(analysis::FailOn failOn)
{
    switch (failOn) {
    case analysis::FailOn::Never:
        return "never";
    case analysis::FailOn::Error:
        return "error";
    case analysis::FailOn::Warning:
        return "warning";
    }
    return "unknown";
}

ErrorCategory
errorCategoryFromName(const std::string &name,
                      const std::string &path)
{
    if (name == "usage")
        return ErrorCategory::Usage;
    if (name == "calibration")
        return ErrorCategory::Calibration;
    if (name == "routing")
        return ErrorCategory::Routing;
    if (name == "compile")
        return ErrorCategory::Compile;
    if (name == "timeout")
        return ErrorCategory::Timeout;
    if (name == "internal")
        return ErrorCategory::Internal;
    throw VaqError(path + ": unknown error category '" + name + "'");
}

analysis::Severity
severityFromName(const std::string &name, const std::string &path)
{
    if (name == "info")
        return analysis::Severity::Info;
    if (name == "warning")
        return analysis::Severity::Warning;
    if (name == "error")
        return analysis::Severity::Error;
    throw VaqError(path + ": unknown severity '" + name + "'");
}

analysis::RuleCategory
ruleCategoryFromName(const std::string &name,
                     const std::string &path)
{
    if (name == "usage")
        return analysis::RuleCategory::Usage;
    if (name == "correctness")
        return analysis::RuleCategory::Correctness;
    if (name == "structure")
        return analysis::RuleCategory::Structure;
    if (name == "reliability")
        return analysis::RuleCategory::Reliability;
    throw VaqError(path + ": unknown rule category '" + name + "'");
}

json::Value
stringArray(const std::vector<std::string> &values)
{
    json::Value array = json::Value::array();
    for (const std::string &value : values)
        array.push(json::Value::string(value));
    return array;
}

std::vector<std::string>
stringArrayFrom(const json::Cursor &cursor)
{
    std::vector<std::string> values;
    values.reserve(cursor.arraySize());
    for (std::size_t i = 0; i < cursor.arraySize(); ++i)
        values.push_back(cursor.at(i).asString());
    return values;
}

json::Value
layoutArray(const Layout &layout)
{
    json::Value array = json::Value::array();
    if (!layout.isComplete())
        return array; // placeholder layouts serialize empty
    for (int phys : layout.progToPhys())
        array.push(json::Value::number(
            static_cast<std::int64_t>(phys)));
    return array;
}

/** A count field: refuses negatives, which would wrap to huge
 *  std::size_t values that the writer cannot emit again. */
std::size_t
countFrom(const json::Cursor &cursor)
{
    const std::int64_t value = cursor.asInt();
    if (value < 0)
        throw VaqError(cursor.path() + ": must be non-negative");
    return static_cast<std::size_t>(value);
}

std::vector<int>
intArrayFrom(const json::Cursor &cursor)
{
    std::vector<int> values;
    values.reserve(cursor.arraySize());
    for (std::size_t i = 0; i < cursor.arraySize(); ++i)
        values.push_back(cursor.at(i).asInt32());
    return values;
}

json::Value
toJson(const analysis::Diagnostic &diag)
{
    json::Value value = json::Value::object();
    value.set("rule", json::Value::string(diag.ruleId));
    value.set("name", json::Value::string(diag.ruleName));
    value.set("severity", json::Value::string(
                              analysis::severityName(diag.severity)));
    value.set("category",
              json::Value::string(
                  analysis::ruleCategoryName(diag.category)));
    value.set("message", json::Value::string(diag.message));
    value.set("gate", json::Value::number(
                          static_cast<std::int64_t>(diag.gateIndex)));
    value.set("qubit", json::Value::number(
                           static_cast<std::int64_t>(diag.qubit)));
    value.set("qubit2", json::Value::number(
                            static_cast<std::int64_t>(diag.qubit2)));
    value.set("line", json::Value::number(
                          static_cast<std::int64_t>(diag.line)));
    return value;
}

analysis::Diagnostic
diagnosticFromJson(const json::Cursor &cursor)
{
    analysis::Diagnostic diag;
    diag.ruleId = cursor.at("rule").asString();
    diag.ruleName = cursor.at("name").asString();
    diag.severity =
        severityFromName(cursor.at("severity").asString(),
                         cursor.at("severity").path());
    diag.category =
        ruleCategoryFromName(cursor.at("category").asString(),
                             cursor.at("category").path());
    diag.message = cursor.at("message").asString();
    diag.gateIndex = static_cast<long>(cursor.at("gate").asInt());
    diag.qubit = cursor.at("qubit").asInt32();
    diag.qubit2 = cursor.at("qubit2").asInt32();
    diag.line = cursor.at("line").asInt32();
    return diag;
}

} // namespace

json::Value
toJson(const PolicySpec &spec)
{
    json::Value value = json::Value::object();
    value.set("name", json::Value::string(spec.name));
    value.set("mah", json::Value::number(
                         static_cast<std::int64_t>(spec.mah)));
    value.set("seed", json::Value::number(
                          static_cast<std::int64_t>(spec.seed)));
    return value;
}

PolicySpec
policySpecFromJson(const json::Cursor &cursor)
{
    PolicySpec spec;
    if (const auto name = cursor.get("name"))
        spec.name = name->asString();
    if (const auto mah = cursor.get("mah"))
        spec.mah = mah->asInt32();
    if (const auto seed = cursor.get("seed")) {
        const std::int64_t raw = seed->asInt();
        if (raw < 0)
            throw VaqError(seed->path() +
                           ": seed must be non-negative");
        spec.seed = static_cast<std::uint64_t>(raw);
    }
    return spec;
}

json::Value
toJson(const CompileRequest &request)
{
    json::Value value = json::Value::object();
    value.set("version", json::Value::number(std::int64_t{1}));
    value.set("clientId", json::Value::string(request.clientId));
    value.set("qasm", json::Value::string(
                          circuit::toQasm(request.circuit)));
    value.set("policy", toJson(request.policy));

    json::Value options = json::Value::object();
    options.set("cacheEnabled",
                json::Value::boolean(request.options.cacheEnabled));
    options.set("telemetryEnabled",
                json::Value::boolean(
                    request.options.telemetryEnabled));
    options.set("threads",
                json::Value::number(request.options.threads));
    options.set("simEngine",
                json::Value::string(sim::simEngineName(
                    request.options.simEngine)));
    value.set("options", std::move(options));

    json::Value lint = json::Value::object();
    lint.set("enabled", json::Value::boolean(request.lint));
    lint.set("disabled", stringArray(request.lintOptions.disabled));
    lint.set("only", stringArray(request.lintOptions.enabledOnly));
    lint.set("failOn", json::Value::string(
                           failOnName(request.lintOptions.failOn)));
    value.set("lint", std::move(lint));

    value.set("deadlineMs", json::Value::number(request.deadlineMs));
    value.set("maxRetries",
              json::Value::number(
                  static_cast<std::int64_t>(request.maxRetries)));
    value.set("calibration",
              json::Value::string(
                  calibrationHandlingName(request.calibration)));
    value.set("scoreResult",
              json::Value::boolean(request.scoreResult));
    return value;
}

CompileRequest
compileRequestFromJson(const json::Cursor &cursor)
{
    CompileRequest request;
    request.circuit =
        circuit::fromQasm(cursor.at("qasm").asString());
    if (const auto clientId = cursor.get("clientId"))
        request.clientId = clientId->asString();
    if (const auto policy = cursor.get("policy"))
        request.policy = policySpecFromJson(*policy);
    if (const auto options = cursor.get("options")) {
        if (const auto cache = options->get("cacheEnabled"))
            request.options.cacheEnabled = cache->asBool();
        if (const auto telemetry = options->get("telemetryEnabled"))
            request.options.telemetryEnabled = telemetry->asBool();
        if (const auto threads = options->get("threads"))
            request.options.threads = countFrom(*threads);
        if (const auto engine = options->get("simEngine"))
            request.options.simEngine =
                sim::simEngineFromName(engine->asString());
    }
    if (const auto lint = cursor.get("lint")) {
        if (const auto enabled = lint->get("enabled"))
            request.lint = enabled->asBool();
        if (const auto disabled = lint->get("disabled"))
            request.lintOptions.disabled =
                stringArrayFrom(*disabled);
        if (const auto only = lint->get("only"))
            request.lintOptions.enabledOnly =
                stringArrayFrom(*only);
        if (const auto failOn = lint->get("failOn"))
            request.lintOptions.failOn =
                analysis::failOnFromName(failOn->asString());
    }
    if (const auto deadline = cursor.get("deadlineMs"))
        request.deadlineMs = deadline->asNumber();
    if (const auto retries = cursor.get("maxRetries"))
        request.maxRetries = retries->asInt32();
    if (const auto calibration = cursor.get("calibration"))
        request.calibration =
            calibrationHandlingFromName(calibration->asString());
    if (const auto score = cursor.get("scoreResult"))
        request.scoreResult = score->asBool();
    return request;
}

json::Value
toJson(const CompileResult &result)
{
    json::Value value = json::Value::object();
    value.set("version", json::Value::number(std::int64_t{1}));
    value.set("status", json::Value::string(
                            jobStatusName(result.status)));
    value.set("policyUsed", json::Value::string(result.policyUsed));
    value.set("attempts",
              json::Value::number(
                  static_cast<std::int64_t>(result.attempts)));
    value.set("analyticPst",
              json::Value::number(result.analyticPst));
    value.set("errorCategory",
              json::Value::string(
                  errorCategoryName(result.errorCategory)));
    value.set("error", json::Value::string(result.error));
    value.set("note", json::Value::string(result.note));

    json::Value mapped = json::Value::object();
    mapped.set("qasm", json::Value::string(
                           circuit::toQasm(result.mapped.physical)));
    mapped.set("initialLayout", layoutArray(result.mapped.initial));
    mapped.set("finalLayout", layoutArray(result.mapped.final));
    mapped.set("insertedSwaps",
               json::Value::number(result.mapped.insertedSwaps));
    mapped.set("policyName",
               json::Value::string(result.mapped.policyName));
    value.set("mapped", std::move(mapped));

    json::Value lint = json::Value::object();
    lint.set("errors", json::Value::number(result.lintErrors));
    lint.set("warnings", json::Value::number(result.lintWarnings));
    lint.set("mappedErrors",
             json::Value::number(result.mappedLintErrors));
    lint.set("mappedWarnings",
             json::Value::number(result.mappedLintWarnings));
    json::Value diagnostics = json::Value::array();
    for (const analysis::Diagnostic &diag : result.diagnostics)
        diagnostics.push(toJson(diag));
    lint.set("diagnostics", std::move(diagnostics));
    value.set("lint", std::move(lint));

    json::Value cache = json::Value::object();
    cache.set("fromStore", json::Value::boolean(result.fromStore));
    cache.set("viaDelta", json::Value::boolean(result.viaDelta));
    value.set("cache", std::move(cache));

    json::Value timing = json::Value::object();
    timing.set("compileMs", json::Value::number(result.compileMs));
    value.set("timing", std::move(timing));
    return value;
}

CompileResult
compileResultFromJson(const json::Cursor &cursor)
{
    CompileResult result;
    result.status =
        jobStatusFromName(cursor.at("status").asString());
    result.policyUsed = cursor.at("policyUsed").asString();
    result.attempts = cursor.at("attempts").asInt32();
    result.analyticPst = cursor.at("analyticPst").asNumber();
    result.errorCategory = errorCategoryFromName(
        cursor.at("errorCategory").asString(),
        cursor.at("errorCategory").path());
    result.error = cursor.at("error").asString();
    result.note = cursor.at("note").asString();

    const json::Cursor mapped = cursor.at("mapped");
    circuit::Circuit physical =
        circuit::fromQasm(mapped.at("qasm").asString());
    const std::vector<int> initial =
        intArrayFrom(mapped.at("initialLayout"));
    const std::vector<int> final_ =
        intArrayFrom(mapped.at("finalLayout"));
    if (initial.size() != final_.size())
        throw VaqError(mapped.path() +
                       ": initialLayout and finalLayout disagree "
                       "on program width");
    const int numProg =
        initial.empty() ? 1 : static_cast<int>(initial.size());
    MappedCircuit mappedCircuit(numProg, physical.numQubits());
    mappedCircuit.physical = std::move(physical);
    for (std::size_t q = 0; q < initial.size(); ++q) {
        mappedCircuit.initial.assign(static_cast<int>(q),
                                     initial[q]);
        mappedCircuit.final.assign(static_cast<int>(q), final_[q]);
    }
    mappedCircuit.insertedSwaps = countFrom(mapped.at("insertedSwaps"));
    mappedCircuit.policyName = mapped.at("policyName").asString();
    result.mapped = std::move(mappedCircuit);

    const json::Cursor lint = cursor.at("lint");
    result.lintErrors = countFrom(lint.at("errors"));
    result.lintWarnings = countFrom(lint.at("warnings"));
    result.mappedLintErrors = countFrom(lint.at("mappedErrors"));
    result.mappedLintWarnings = countFrom(lint.at("mappedWarnings"));
    const json::Cursor diagnostics = lint.at("diagnostics");
    result.diagnostics.reserve(diagnostics.arraySize());
    for (std::size_t i = 0; i < diagnostics.arraySize(); ++i)
        result.diagnostics.push_back(
            diagnosticFromJson(diagnostics.at(i)));

    const json::Cursor cache = cursor.at("cache");
    result.fromStore = cache.at("fromStore").asBool();
    result.viaDelta = cache.at("viaDelta").asBool();
    result.compileMs =
        cursor.at("timing").at("compileMs").asNumber();
    return result;
}

} // namespace vaq::core

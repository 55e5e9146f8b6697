#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace vaq::analysis
{
namespace
{

using circuit::Circuit;

/** A fixed dirty circuit exercising several rules at once. */
LintReport
dirtyReport()
{
    static const Circuit circuit = [] {
        Circuit c(3);
        c.h(0).measure(0).x(0).measure(0).z(2).measure(1);
        return c;
    }();
    LintInput input;
    input.circuit = &circuit;
    input.artifact = "dirty.qasm";
    return Linter().run(input);
}

/**
 * Minimal JSON well-formedness check: balanced structure outside
 * strings, with escape handling. Not a full parser, but enough to
 * catch broken quoting or bracket mismatches in the renderers.
 */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool inString = false;
    bool escaped = false;
    for (const char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
        case '"':
            inString = true;
            break;
        case '{':
        case '[':
            stack.push_back(c);
            break;
        case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
        case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
        default:
            break;
        }
    }
    return !inString && stack.empty();
}

TEST(Diagnostics, FailOnParsesAllThresholds)
{
    EXPECT_EQ(failOnFromName("never"), FailOn::Never);
    EXPECT_EQ(failOnFromName("error"), FailOn::Error);
    EXPECT_EQ(failOnFromName("warning"), FailOn::Warning);
    EXPECT_THROW(failOnFromName("bogus"), VaqError);
}

TEST(Diagnostics, ShouldFailRespectsThreshold)
{
    const LintReport report = dirtyReport();
    ASSERT_GT(report.errorCount(), 0u);
    ASSERT_GT(report.warningCount(), 0u);
    EXPECT_FALSE(report.shouldFail(FailOn::Never));
    EXPECT_TRUE(report.shouldFail(FailOn::Error));
    EXPECT_TRUE(report.shouldFail(FailOn::Warning));

    LintReport clean;
    clean.diagnostics.clear();
    EXPECT_FALSE(clean.shouldFail(FailOn::Warning));
}

TEST(Diagnostics, TextRenderingGolden)
{
    const LintReport report = dirtyReport();
    const std::string expected =
        "dirty.qasm: warning: [VL002] qubit 0 is reused by gate "
        "'x' after its measurement at gate 1 without a reset "
        "(gate 2)\n"
        "dirty.qasm: error: [VL004] qubit 0 is measured again "
        "into c[0], overwriting the result of gate 1 (gate 3)\n"
        "dirty.qasm: warning: [VL003] gate 'z' on qubit 2 cannot "
        "influence any measurement (gate 4)\n"
        "dirty.qasm: warning: [VL001] qubit 1 is measured without "
        "any prior gate; the outcome is always 0 (gate 5)\n"
        "1 error, 3 warnings\n";
    EXPECT_EQ(renderText(report), expected);
}

TEST(Diagnostics, TextRenderingCleanCircuit)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    LintInput input;
    input.circuit = &c;
    input.artifact = "bell.qasm";
    const LintReport report = Linter().run(input);
    EXPECT_TRUE(report.diagnostics.empty());
    EXPECT_EQ(renderText(report), "bell.qasm: clean (13 rules)\n");
}

TEST(Diagnostics, JsonIsWellFormedAndCounts)
{
    const LintReport report = dirtyReport();
    const std::string json = renderJson(report);
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"artifact\": \"dirty.qasm\""),
              std::string::npos);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"warnings\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"VL004\""),
              std::string::npos);
}

TEST(Diagnostics, SarifHasRequiredTopLevelShape)
{
    const LintReport report = dirtyReport();
    const std::string sarif = renderSarif(report);
    EXPECT_TRUE(jsonBalanced(sarif));
    // Required SARIF 2.1.0 log properties.
    EXPECT_NE(sarif.find("\"$schema\""), std::string::npos);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"runs\""), std::string::npos);
    // Required run/tool/driver properties.
    EXPECT_NE(sarif.find("\"tool\""), std::string::npos);
    EXPECT_NE(sarif.find("\"driver\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"vaq_lint\""),
              std::string::npos);
}

TEST(Diagnostics, SarifListsEveryRuleAndFinding)
{
    const LintReport report = dirtyReport();
    const std::string sarif = renderSarif(report);
    // Every shipped rule appears in tool.driver.rules.
    for (const RuleInfo &rule : report.rules) {
        EXPECT_NE(sarif.find("\"id\": \"" + rule.id + "\""),
                  std::string::npos)
            << rule.id;
    }
    // Every finding becomes a result with a location.
    std::size_t results = 0;
    for (std::size_t pos = sarif.find("\"ruleId\"");
         pos != std::string::npos;
         pos = sarif.find("\"ruleId\"", pos + 1)) {
        ++results;
    }
    EXPECT_EQ(results, report.diagnostics.size());
    EXPECT_NE(sarif.find("\"physicalLocation\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"logicalLocations\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"ruleIndex\": 3"), std::string::npos);
}

TEST(Diagnostics, SarifLevelsMatchSeverity)
{
    const LintReport report = dirtyReport();
    const std::string sarif = renderSarif(report);
    EXPECT_NE(sarif.find("\"level\": \"error\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"level\": \"warning\""),
              std::string::npos);
}

TEST(Diagnostics, RenderersAreByteDeterministicAcrossRuns)
{
    const LintReport a = dirtyReport();
    const LintReport b = dirtyReport();
    EXPECT_EQ(renderText(a), renderText(b));
    EXPECT_EQ(renderJson(a), renderJson(b));
    EXPECT_EQ(renderSarif(a), renderSarif(b));
}

TEST(Diagnostics, SourceLinesFlowIntoRenderings)
{
    Circuit c(1);
    c.measure(0);
    const std::vector<int> lines{7};
    LintInput input;
    input.circuit = &c;
    input.gateLines = &lines;
    input.artifact = "prog.qasm";
    const LintReport report = Linter().run(input);
    ASSERT_FALSE(report.diagnostics.empty());
    EXPECT_EQ(report.diagnostics[0].line, 7);
    EXPECT_NE(renderText(report).find("prog.qasm:7: warning"),
              std::string::npos);
    EXPECT_NE(renderSarif(report).find("\"startLine\": 7"),
              std::string::npos);
}

/** A report whose artifact path and finding carry control bytes a
 *  JSON string may not hold raw. */
LintReport
controlCharacterReport()
{
    LintReport report;
    report.artifact = "bad\rname\x01.qasm";
    Diagnostic diag;
    diag.ruleId = "VL005";
    diag.ruleName = "uncoupled-cx";
    diag.severity = Severity::Error;
    diag.message = "tab\there\fform\bfeed\x1f";
    diag.gateIndex = 0;
    diag.qubit = 0;
    report.diagnostics.push_back(diag);
    report.rules.push_back({"VL005", "uncoupled-cx", Severity::Error,
                            RuleCategory::Correctness,
                            "cx on an uncoupled pair"});
    return report;
}

TEST(Diagnostics, JsonEscapesControlCharacters)
{
    const LintReport report = controlCharacterReport();
    const json::Value doc = json::parse(renderJson(report), "lint");
    EXPECT_EQ(doc.find("artifact")->asString(), report.artifact);
    EXPECT_EQ(doc.find("diagnostics")->item(0).find("message")->asString(),
              report.diagnostics[0].message);
}

TEST(Diagnostics, SarifEscapesControlCharacters)
{
    const LintReport report = controlCharacterReport();
    const json::Value doc = json::parse(renderSarif(report), "sarif");
    const json::Value &result =
        doc.find("runs")->item(0).find("results")->item(0);
    EXPECT_EQ(result.find("message")->find("text")->asString(),
              report.diagnostics[0].message);
    EXPECT_EQ(result.find("locations")
                  ->item(0)
                  .find("physicalLocation")
                  ->find("artifactLocation")
                  ->find("uri")
                  ->asString(),
              report.artifact);
}

} // namespace
} // namespace vaq::analysis

/**
 * @file
 * Byte goldens for every view of the per-parameter loss
 * decomposition: `vaqc sens` text and JSON, the vaqd `sensitivity`
 * block, the `vaqc --explain` report and the VL013 diagnostic.
 *
 * Each case maps one service fixture with vqa+vqm against the
 * seed-7 synthetic calibration (the same inputs as the golden QASM
 * set in tests/service/golden/) and renders all views into one
 * file under tests/analysis/golden/. On a mismatch the actual
 * rendering is written to `<case>.loss.actual` in the test's
 * working directory, for diffing against the golden.
 */
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/dataflow.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "analysis/sens_report.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/staleness.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/json.hpp"
#include "core/explain.hpp"
#include "core/mapper.hpp"
#include "core/movement_planner.hpp"
#include "topology/layouts.hpp"

namespace vaq::analysis
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** VL013 over the mapped circuit at the given dominance threshold:
 *  the rendered report plus the diagnostic's qubit fields. */
std::string
renderVl013(const LintInput &input, double dominantFraction)
{
    LintOptions options;
    options.enabledOnly = {"VL013"};
    options.params.dominantFraction = dominantFraction;
    const LintReport report = Linter(options).run(input);
    std::string text = renderText(report);
    for (const Diagnostic &d : report.diagnostics)
        text += "qubit " + std::to_string(d.qubit) + ", qubit2 " +
                std::to_string(d.qubit2) + "\n";
    return text;
}

/** Every loss view of `program` mapped onto `machine`. */
std::string
renderCase(const std::string &program, const std::string &machine)
{
    const topology::CouplingGraph graph =
        machine == "q5" ? topology::ibmQ5Tenerife()
                        : topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(
        graph, calibration::SyntheticParams{}, 7);
    const calibration::Snapshot snapshot = source.nextCycle();
    const calibration::Snapshot drifted = source.nextCycle();
    const circuit::Circuit logical = circuit::fromQasm(
        readFile(std::string(VAQ_TEST_DATA_DIR) +
                 "/service/fixtures/" + program + ".qasm"));
    const core::Mapper mapper = core::makeMapper(
        {.name = "vqa+vqm", .mah = core::kUnlimitedHops});
    const core::MappedCircuit mapped =
        mapper.map(logical, graph, snapshot);

    const DataflowAnalysis dataflow(mapped.physical,
                                    snapshot.durations);
    SensReport report;
    report.artifact = program + ".qasm";
    report.profile = analyzeSensitivity(dataflow, graph, snapshot);
    report.hasAssessment = true;
    report.assessment = assessStaleness(report.profile, drifted);

    LintInput input;
    input.circuit = &mapped.physical;
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    input.artifact = report.artifact;

    std::string out;
    out += "=== renderSensText ===\n" + renderSensText(report);
    out += "=== renderSensJson ===\n" + renderSensJson(report);
    out += "\n=== sensitivityJson ===\n" +
           json::write(sensitivityJson(report.profile)) + "\n";
    out += "=== explainMapping ===\n" +
           core::explainMapping(mapped, graph, snapshot);
    out += "=== VL013 dominantFraction 0.5 ===\n" +
           renderVl013(input, 0.5);
    out += "=== VL013 dominantFraction 0 ===\n" +
           renderVl013(input, 0.0);
    return out;
}

struct GoldenCase
{
    const char *program;
    const char *machine;
};

const GoldenCase kCases[] = {
    {"bv4", "q5"},   {"bv4", "q20"},  {"qft5", "q5"},
    {"qft5", "q20"}, {"ghz6", "q20"},
};

TEST(LossGoldens, EveryViewMatchesItsGoldenByteForByte)
{
    for (const GoldenCase &tc : kCases) {
        const std::string name =
            std::string(tc.program) + "." + tc.machine;
        SCOPED_TRACE(name);
        const std::string actual = renderCase(tc.program, tc.machine);
        const std::string golden =
            readFile(std::string(VAQ_TEST_DATA_DIR) +
                     "/analysis/golden/" + name + ".loss.golden");
        EXPECT_EQ(actual, golden);
        if (actual != golden)
            std::ofstream(name + ".loss.actual") << actual;
    }
}

} // namespace
} // namespace vaq::analysis

/**
 * @file
 * Unified compile entry-point suite: every public way to compile a
 * circuit — Mapper::map (the portfolio compile), core::compile /
 * compileCircuit (the entry point), and BatchCompiler — must
 * produce bit-identical mappings for the same input, and must match
 * the golden outputs captured from the pre-redesign vaqc binary.
 */
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_request.hpp"
#include "core/mapper.hpp"
#include "core/movement_planner.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

circuit::Circuit
loadFixture(const std::string &name)
{
    return circuit::fromQasm(readFile(
        std::string(VAQ_TEST_DATA_DIR) + "/service/fixtures/" +
        name + ".qasm"));
}

calibration::Snapshot
seededSnapshot(const topology::CouplingGraph &graph)
{
    // The goldens were captured with `vaqc --synthetic-seed 7`.
    return calibration::SyntheticSource(
               graph, calibration::SyntheticParams{}, 7)
        .nextCycle();
}

struct GoldenCase
{
    const char *program;
    const char *machine; ///< "q20" | "q5"
    const char *policy;
    const char *policySlug; ///< '+' -> '_' for the file name
};

const GoldenCase kGoldenCases[] = {
    {"bv4", "q20", "baseline", "baseline"},
    {"bv4", "q20", "vqm", "vqm"},
    {"bv4", "q20", "vqa+vqm", "vqa_vqm"},
    {"bv4", "q5", "baseline", "baseline"},
    {"bv4", "q5", "vqm", "vqm"},
    {"bv4", "q5", "vqa+vqm", "vqa_vqm"},
    {"ghz6", "q20", "baseline", "baseline"},
    {"ghz6", "q20", "vqm", "vqm"},
    {"ghz6", "q20", "vqa+vqm", "vqa_vqm"},
    {"qft5", "q20", "baseline", "baseline"},
    {"qft5", "q20", "vqm", "vqm"},
    {"qft5", "q20", "vqa+vqm", "vqa_vqm"},
    {"qft5", "q5", "baseline", "baseline"},
    {"qft5", "q5", "vqm", "vqm"},
    {"qft5", "q5", "vqa+vqm", "vqa_vqm"},
};

topology::CouplingGraph
machineFor(const std::string &name)
{
    return name == "q5" ? topology::ibmQ5Tenerife()
                        : topology::ibmQ20Tokyo();
}

TEST(CompileApi, MatchesPreRedesignGoldensBitIdentically)
{
    for (const GoldenCase &tc : kGoldenCases) {
        SCOPED_TRACE(std::string(tc.program) + " on " + tc.machine +
                     " with " + tc.policy);
        const topology::CouplingGraph machine =
            machineFor(tc.machine);
        const calibration::Snapshot snapshot =
            seededSnapshot(machine);
        const circuit::Circuit logical = loadFixture(tc.program);
        const core::Mapper mapper = core::makeMapper(
            {.name = tc.policy, .mah = core::kUnlimitedHops});
        const core::MappedCircuit mapped =
            mapper.map(logical, machine, snapshot);
        const std::string golden = readFile(
            std::string(VAQ_TEST_DATA_DIR) + "/service/golden/" +
            tc.program + "." + tc.machine + "." + tc.policySlug +
            ".golden.qasm");
        EXPECT_EQ(circuit::toQasm(mapped.physical), golden);
    }
}

TEST(CompileApi, AllEntryPointsAgreeBitIdentically)
{
    const topology::CouplingGraph machine = topology::ibmQ20Tokyo();
    const calibration::Snapshot snapshot = seededSnapshot(machine);
    const circuit::Circuit logical = loadFixture("qft5");
    const core::PolicySpec spec{.name = "vqa+vqm"};
    const core::Mapper mapper = core::makeMapper(spec);

    // 1. Mapper::map, the portfolio compile every path runs.
    const core::MappedCircuit viaMapper =
        mapper.map(logical, machine, snapshot);

    // 2. core::compile, the unified entry point, in vaqc's
    //    single-compile configuration (Trust, no retries).
    core::CompileRequest trusting;
    trusting.circuit = logical;
    trusting.policy = spec;
    trusting.maxRetries = 0;
    trusting.calibration = core::CalibrationHandling::Trust;
    trusting.scoreResult = false;
    const core::CompileResult viaCompile =
        core::compile(trusting, machine, snapshot);
    ASSERT_TRUE(viaCompile.ok());

    // 3. core::compile in the daemon's contained configuration
    //    (sanitize + retries allowed) — a clean snapshot must not
    //    route differently.
    core::CompileRequest contained;
    contained.circuit = logical;
    contained.policy = spec;
    const core::CompileResult viaService =
        core::compile(contained, machine, snapshot);
    ASSERT_TRUE(viaService.ok());
    EXPECT_EQ(viaService.attempts, 1);
    EXPECT_GT(viaService.analyticPst, 0.0);

    // 4. BatchCompiler, one job.
    core::BatchCompiler batch(mapper, machine, {});
    const std::vector<core::BatchResult> viaBatch =
        batch.compileAll({logical}, {snapshot});
    ASSERT_EQ(viaBatch.size(), 1u);
    ASSERT_TRUE(viaBatch[0].ok());

    const std::string reference = circuit::toQasm(viaMapper.physical);
    EXPECT_EQ(circuit::toQasm(viaCompile.mapped.physical),
              reference);
    EXPECT_EQ(circuit::toQasm(viaService.mapped.physical),
              reference);
    EXPECT_EQ(circuit::toQasm(viaBatch[0].mapped.physical),
              reference);
    EXPECT_EQ(viaCompile.mapped.initial.progToPhys(),
              viaMapper.initial.progToPhys());
    EXPECT_EQ(viaService.mapped.initial.progToPhys(),
              viaMapper.initial.progToPhys());
    EXPECT_EQ(viaBatch[0].mapped.initial.progToPhys(),
              viaMapper.initial.progToPhys());
}

TEST(CompileApi, RejectedSnapshotsAreContained)
{
    const topology::CouplingGraph machine = topology::ibmQ5Tenerife();
    calibration::Snapshot poisoned = test::uniformSnapshot(machine);
    poisoned.qubit(0).t1Us = -1.0; // invalid: fails validate()

    core::CompileRequest request;
    request.circuit = loadFixture("bv4");
    request.policy = {.name = "baseline"};

    // A snapshot that fails validate() is reported, not thrown:
    // Failed + Calibration, with no compile attempt.
    request.calibration = core::CalibrationHandling::Validate;
    const core::CompileResult contained =
        core::compile(request, machine, poisoned);
    EXPECT_EQ(contained.status, core::JobStatus::Failed);
    EXPECT_EQ(contained.errorCategory, ErrorCategory::Calibration);
    EXPECT_EQ(contained.attempts, 0);
}

} // namespace
} // namespace vaq

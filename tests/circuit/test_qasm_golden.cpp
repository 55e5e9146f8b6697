/**
 * @file
 * Golden-file regression tests for the OpenQASM writer: each
 * checked-in input program is parsed, optionally passed through the
 * CNOT-orientation pass, emitted, and the emitted text must match
 * the committed `.golden.qasm` byte for byte. The emitted text must
 * also be a fixpoint of parse -> emit, so externally authored
 * programs stabilise after one round trip.
 *
 * Set VAQ_UPDATE_GOLDEN=1 to rewrite the golden files in the source
 * tree instead of comparing (then inspect the diff before
 * committing).
 */
#include "circuit/qasm.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/orient.hpp"
#include "common/error.hpp"
#include "topology/layouts.hpp"

namespace vaq::circuit
{
namespace
{

std::string
fixturePath(const std::string &name)
{
    return std::string(VAQ_TEST_DATA_DIR) + "/circuit/golden/" +
           name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        throw VaqError("cannot open fixture: " + path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/**
 * Compare `emitted` against the golden file, or rewrite the golden
 * when VAQ_UPDATE_GOLDEN is set.
 */
void
expectMatchesGolden(const std::string &emitted,
                    const std::string &goldenName)
{
    const std::string path = fixturePath(goldenName);
    if (std::getenv("VAQ_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        if (!out.good())
            throw VaqError("cannot write golden: " + path);
        out << emitted;
        GTEST_SKIP() << "rewrote " << goldenName;
    }
    EXPECT_EQ(emitted, readFile(path)) << goldenName;
}

/** Emit -> parse -> emit must reproduce the same text. */
void
expectEmitFixpoint(const std::string &emitted)
{
    EXPECT_EQ(toQasm(fromQasm(emitted)), emitted);
}

TEST(QasmGolden, EmptyCircuitRoundTrips)
{
    const Circuit parsed =
        fromQasm(readFile(fixturePath("empty.qasm")));
    EXPECT_EQ(parsed.numQubits(), 3);
    EXPECT_EQ(parsed.size(), 0u);
    const std::string emitted = toQasm(parsed);
    expectMatchesGolden(emitted, "empty.golden.qasm");
    expectEmitFixpoint(emitted);
}

TEST(QasmGolden, SingleQubitProgramRoundTrips)
{
    const Circuit parsed =
        fromQasm(readFile(fixturePath("single_qubit.qasm")));
    EXPECT_EQ(parsed.numQubits(), 1);
    const std::string emitted = toQasm(parsed);
    expectMatchesGolden(emitted, "single_qubit.golden.qasm");
    expectEmitFixpoint(emitted);
}

TEST(QasmGolden, DirectedCxOrientationRoundTrips)
{
    // A routed Tenerife circuit with one native CX, one reversed
    // CX, and a SWAP; orientCnots rewrites it onto the published
    // 1->0, 2->0, 2->1, 3->2, 3->4, 4->2 directions.
    const topology::CouplingGraph graph =
        topology::ibmQ5Tenerife();
    const topology::CnotDirections directions =
        topology::ibmQ5TenerifeDirections(graph);
    const Circuit physical =
        fromQasm(readFile(fixturePath("directed_cx.qasm")));

    OrientStats stats;
    const Circuit oriented =
        orientCnots(physical, directions, &stats);
    EXPECT_GT(stats.reversedCnots, 0u);
    EXPECT_EQ(stats.loweredSwaps, 1u);
    for (const Gate &g : oriented.gates()) {
        if (g.kind == GateKind::CX)
            EXPECT_TRUE(directions.allowed(g.q0, g.q1));
    }

    const std::string emitted = toQasm(oriented);
    expectMatchesGolden(emitted, "directed_cx.golden.qasm");
    expectEmitFixpoint(emitted);
}

} // namespace
} // namespace vaq::circuit

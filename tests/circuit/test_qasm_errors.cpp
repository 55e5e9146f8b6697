/**
 * @file
 * Regression corpus for QASM parse errors: every checked-in
 * malformed program must be rejected with a located
 * "source:line:column:" message (the CSV-loader convention) and,
 * when a source line is available, an excerpt with a caret under
 * the blamed token. Locking the locations down keeps editor and CI
 * integrations (which parse these prefixes) working.
 */
#include "circuit/qasm.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace vaq::circuit
{
namespace
{

std::string
fixture(const std::string &name)
{
    const std::string path = std::string(VAQ_TEST_DATA_DIR) +
                             "/circuit/malformed/" + name;
    std::ifstream in(path);
    if (!in.good())
        throw VaqError("cannot open fixture: " + path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/**
 * Parse the named corpus file and return the error message, which
 * must exist, carry the expected location prefix, and be a Usage
 * error.
 */
std::string
messageFor(const std::string &name, const std::string &location)
{
    try {
        parseQasm(fixture(name), name);
    } catch (const VaqError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Usage) << name;
        EXPECT_EQ(e.message().rfind(name + ":" + location + ":", 0),
                  0u)
            << name << " reported: " << e.message();
        return e.message();
    }
    ADD_FAILURE() << name << " parsed without an error";
    return "";
}

TEST(QasmErrors, MissingSemicolonPointsAtTheStatement)
{
    const std::string msg =
        messageFor("missing_semicolon.qasm", "3:1");
    EXPECT_NE(msg.find("missing ';' at end of statement"),
              std::string::npos);
    EXPECT_NE(msg.find("\n  h q[0]\n  ^"), std::string::npos);
}

TEST(QasmErrors, UnknownGateNamesTheGate)
{
    const std::string msg = messageFor("unknown_gate.qasm", "3:1");
    EXPECT_NE(msg.find("unknown gate 'frobnicate'"),
              std::string::npos);
    EXPECT_NE(msg.find("\n  frobnicate q[0];\n  ^"),
              std::string::npos);
}

TEST(QasmErrors, MalformedOperandPointsAtTheOperand)
{
    const std::string msg = messageFor("bad_operand.qasm", "3:3");
    EXPECT_NE(
        msg.find("malformed operand 'q0': expected q[<index>]"),
        std::string::npos);
    // Caret sits under the operand, two columns in.
    EXPECT_NE(msg.find("\n  h q0;\n    ^"), std::string::npos);
}

TEST(QasmErrors, GateBeforeQregIsLocated)
{
    const std::string msg =
        messageFor("gate_before_qreg.qasm", "2:1");
    EXPECT_NE(msg.find("gate before qreg"), std::string::npos);
}

TEST(QasmErrors, MalformedAnglePointsAtTheExpression)
{
    const std::string msg = messageFor("bad_angle.qasm", "3:4");
    EXPECT_NE(msg.find("malformed angle 'pi/zero'"),
              std::string::npos);
}

TEST(QasmErrors, MeasureWithoutArrowIsLocated)
{
    const std::string msg = messageFor("missing_arrow.qasm", "3:1");
    EXPECT_NE(
        msg.find("malformed measure: expected measure q[i] -> c[i]"),
        std::string::npos);
}

TEST(QasmErrors, TwoQubitGateArityIsChecked)
{
    const std::string msg =
        messageFor("two_qubit_arity.qasm", "3:1");
    EXPECT_NE(msg.find("two-qubit gate 'cx' needs two operands"),
              std::string::npos);
}

TEST(QasmErrors, TwoBadOperandsBlameTheFirst)
{
    // Operands are parsed in source order, so the first bad one is
    // reported whatever the compiler's argument evaluation order.
    const std::string msg =
        messageFor("two_bad_operands.qasm", "3:4");
    EXPECT_NE(msg.find("malformed operand 'r[0]': expected q[<index>]"),
              std::string::npos);
    EXPECT_NE(msg.find("\n  cx r[0],s[1];\n     ^"),
              std::string::npos);
}

TEST(QasmErrors, OutOfRangeOperandGainsTheSourceLine)
{
    // Circuit::append's range error carries no location of its own;
    // the parser must re-raise it with the offending line.
    messageFor("out_of_range.qasm", "3:1");
}

TEST(QasmErrors, SizesAndIndicesStopAtTheOperandLimit)
{
    const auto failure = [](const std::string &body) {
        try {
            parseQasm("OPENQASM 2.0;\n" + body, "limit.qasm");
        } catch (const VaqError &e) {
            return e.message();
        }
        ADD_FAILURE() << "parsed: " << body;
        return std::string();
    };
    // 2^32 + 1 must not wrap to a 1-qubit register.
    EXPECT_EQ(failure("qreg q[4294967297];\nh q[0];\n")
                  .rfind("limit.qasm:2:1: bad qreg size: 4294967297 "
                         "exceeds the operand limit 32767",
                         0),
              0u);
    EXPECT_NE(failure("qreg q[32768];\n").find("operand limit 32767"),
              std::string::npos);
    // 2^32 must not wrap to q[0].
    EXPECT_NE(failure("qreg q[1];\nh q[4294967296];\n")
                  .find("bad operand index '4294967296': 4294967296 "
                        "exceeds the operand limit 32767"),
              std::string::npos);

    const ParsedQasm widest = parseQasm(
        "OPENQASM 2.0;\nqreg q[32767];\nh q[32766];\n", "limit.qasm");
    EXPECT_EQ(widest.circuit.numQubits(), kMaxQubits);
}

TEST(QasmErrors, ProgramWithoutQregReportsLastLine)
{
    const std::string msg = messageFor("no_qreg.qasm", "2:1");
    EXPECT_NE(msg.find("program has no qreg"), std::string::npos);
}

TEST(QasmErrors, ParsedQasmRecordsOneLinePerGate)
{
    const std::string text = "OPENQASM 2.0;\n"
                             "include \"qelib1.inc\";\n"
                             "qreg q[2];\n"
                             "creg c[2];\n"
                             "\n"
                             "h q[0]; // comment\n"
                             "cx q[0],q[1];\n"
                             "\n"
                             "measure q[0] -> c[0];\n";
    const ParsedQasm parsed = parseQasm(text, "prog.qasm");
    ASSERT_EQ(parsed.circuit.size(), 3u);
    EXPECT_EQ(parsed.gateLines, (std::vector<int>{6, 7, 9}));
}

} // namespace
} // namespace vaq::circuit

/**
 * @file
 * Deterministic JSON suite: the common/json.hpp document model and
 * the CompileRequest / CompileResult / PolicySpec wire forms it
 * carries. Byte-stable goldens pin the wire format; the parse-side
 * tests pin the unknown-field tolerance and the "$.field.path"
 * error convention.
 */
#include <string>

#include <gtest/gtest.h>

#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/compile_request.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq
{
namespace
{

TEST(Json, WritesDeterministicallyInInsertionOrder)
{
    json::Value doc = json::Value::object();
    doc.set("zeta", json::Value::number(std::int64_t{1}));
    doc.set("alpha", json::Value::string("two"));
    json::Value inner = json::Value::array();
    inner.push(json::Value::boolean(true));
    inner.push(json::Value());
    doc.set("list", std::move(inner));
    // Insertion order, not alphabetical; integral doubles print
    // without a fraction.
    EXPECT_EQ(json::write(doc),
              "{\"zeta\":1,\"alpha\":\"two\",\"list\":[true,null]}");
    // set() replaces in place without reordering.
    doc.set("zeta", json::Value::number(2.5));
    EXPECT_EQ(json::write(doc),
              "{\"zeta\":2.5,\"alpha\":\"two\",\"list\":[true,null]}");
}

TEST(Json, RoundTripsThroughParse)
{
    const std::string text =
        "{\"a\":1,\"b\":[1,2,3],\"c\":{\"d\":\"x\\ny\"},"
        "\"e\":-0.125,\"f\":false,\"g\":null}";
    EXPECT_EQ(json::write(json::parse(text)), text);
}

TEST(Json, ParseErrorsCarrySourceLineAndColumn)
{
    try {
        json::parse("{\n  \"a\": nope\n}", "body");
        FAIL() << "expected parse error";
    } catch (const VaqError &e) {
        EXPECT_NE(std::string(e.message()).find("body:2:"),
                  std::string::npos)
            << e.message();
        EXPECT_EQ(e.category(), ErrorCategory::Usage);
    }
}

TEST(Json, RejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_THROW(json::parse(deep, "deep"), VaqError);
}

TEST(Json, CursorNamesTheFieldPathOnTypeMismatch)
{
    const json::Value doc =
        json::parse("{\"policy\":{\"mah\":\"four\"}}");
    const json::Cursor cursor(doc);
    try {
        cursor.at("policy").at("mah").asInt();
        FAIL() << "expected type error";
    } catch (const VaqError &e) {
        EXPECT_NE(std::string(e.message()).find("$.policy.mah"),
                  std::string::npos)
            << e.message();
    }
}

TEST(PolicySpecJson, RoundTripsAndRejectsNegativeSeed)
{
    core::PolicySpec spec{.name = "vqm", .mah = 4, .seed = 11};
    const std::string text = json::write(core::toJson(spec));
    EXPECT_EQ(text, "{\"name\":\"vqm\",\"mah\":4,\"seed\":11}");
    const core::PolicySpec parsed = core::policySpecFromJson(
        json::Cursor(json::parse(text)));
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.mah, spec.mah);
    EXPECT_EQ(parsed.seed, spec.seed);

    try {
        core::policySpecFromJson(
            json::Cursor(json::parse("{\"seed\":-3}")));
        FAIL() << "expected negative-seed rejection";
    } catch (const VaqError &e) {
        EXPECT_NE(std::string(e.message()).find("$.seed"),
                  std::string::npos)
            << e.message();
    }
}

core::CompileRequest
canonicalRequest()
{
    core::CompileRequest request;
    circuit::Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    bell.measure(0);
    bell.measure(1);
    request.circuit = bell;
    request.policy = {.name = "vqa+vqm", .mah = 4};
    // Pin the options (telemetry defaults to obs::enabled()) so the
    // golden below is state-independent.
    request.options.cacheEnabled = true;
    request.options.telemetryEnabled = false;
    request.clientId = "golden";
    request.deadlineMs = 250.0;
    return request;
}

TEST(CompileRequestJson, GoldenBytesAreStable)
{
    // The wire format, byte for byte. Changing this string is a
    // breaking protocol change — bump "version" when you do.
    const std::string golden =
        "{\"version\":1,\"clientId\":\"golden\","
        "\"qasm\":\"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\n"
        "qreg q[2];\\ncreg c[2];\\nh q[0];\\ncx q[0],q[1];\\n"
        "measure q[0] -> c[0];\\nmeasure q[1] -> c[1];\\n\","
        "\"policy\":{\"name\":\"vqa+vqm\",\"mah\":4,\"seed\":0},"
        "\"options\":{\"cacheEnabled\":true,"
        "\"telemetryEnabled\":false,\"threads\":0,"
        "\"simEngine\":\"auto\"},"
        "\"lint\":{\"enabled\":false,\"disabled\":[],\"only\":[],"
        "\"failOn\":\"error\"},"
        "\"deadlineMs\":250,\"maxRetries\":2,"
        "\"calibration\":\"sanitize\",\"scoreResult\":true}";
    EXPECT_EQ(json::write(core::toJson(canonicalRequest())),
              golden);
}

TEST(CompileRequestJson, RoundTripsByteIdentically)
{
    const std::string once =
        json::write(core::toJson(canonicalRequest()));
    core::CompileRequest reparsed = core::compileRequestFromJson(
        json::Cursor(json::parse(once)));
    // telemetryEnabled's default tracks obs::enabled(); the parse
    // restores the serialized value, so the second trip must be
    // byte-identical.
    EXPECT_EQ(json::write(core::toJson(reparsed)), once);
}

TEST(CompileRequestJson, ToleratesUnknownFields)
{
    const core::CompileRequest request = core::compileRequestFromJson(
        json::Cursor(json::parse(
            "{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\\n\","
            "\"futureKnob\":42,"
            "\"policy\":{\"name\":\"baseline\",\"vendor\":{}}}")));
    EXPECT_EQ(request.policy.name, "baseline");
    EXPECT_EQ(request.circuit.numQubits(), 1);
}

TEST(CompileRequestJson, MissingQasmNamesThePath)
{
    try {
        core::compileRequestFromJson(
            json::Cursor(json::parse("{\"policy\":{}}")));
        FAIL() << "expected missing-field error";
    } catch (const VaqError &e) {
        EXPECT_NE(std::string(e.message()).find("$.qasm"),
                  std::string::npos)
            << e.message();
    }
}

TEST(CompileResultJson, RoundTripsACompiledResult)
{
    const topology::CouplingGraph graph = topology::ibmQ5Tenerife();
    const calibration::Snapshot snapshot =
        test::uniformSnapshot(graph);
    circuit::Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    bell.measure(0);
    bell.measure(1);

    core::CompileRequest request;
    request.policy = {.name = "vqm"};
    request.options.telemetryEnabled = false;
    core::CompileResult result =
        core::compileCircuit(bell, request, graph, snapshot);
    ASSERT_TRUE(result.ok());
    result.compileMs = 0.0; // wall-clock is not part of identity

    const std::string once = json::write(core::toJson(result));
    const core::CompileResult reparsed =
        core::compileResultFromJson(
            json::Cursor(json::parse(once)));
    EXPECT_EQ(json::write(core::toJson(reparsed)), once);
    EXPECT_EQ(reparsed.status, result.status);
    EXPECT_EQ(reparsed.policyUsed, result.policyUsed);
    EXPECT_DOUBLE_EQ(reparsed.analyticPst, result.analyticPst);
    EXPECT_EQ(circuit::toQasm(reparsed.mapped.physical),
              circuit::toQasm(result.mapped.physical));
    EXPECT_EQ(reparsed.mapped.initial.progToPhys(),
              result.mapped.initial.progToPhys());
    EXPECT_EQ(reparsed.mapped.final.progToPhys(),
              result.mapped.final.progToPhys());
}

TEST(CompileResultJson, LayoutWidthMismatchIsRejected)
{
    const topology::CouplingGraph graph = topology::ibmQ5Tenerife();
    core::CompileRequest request;
    request.policy = {.name = "baseline"};
    circuit::Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    core::CompileResult result = core::compileCircuit(
        bell, request, graph, test::uniformSnapshot(graph));
    ASSERT_TRUE(result.ok());
    json::Value doc = core::toJson(result);
    // Truncate finalLayout only: the reader must refuse rather than
    // fabricate a partial layout.
    json::Value shortLayout = json::Value::array();
    shortLayout.push(json::Value::number(std::int64_t{0}));
    json::Value mapped = *doc.find("mapped");
    mapped.set("finalLayout", std::move(shortLayout));
    doc.set("mapped", std::move(mapped));
    EXPECT_THROW(core::compileResultFromJson(
                     json::Cursor(doc)),
                 VaqError);
}

} // namespace
} // namespace vaq

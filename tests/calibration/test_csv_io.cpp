#include "calibration/csv_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "calibration/synthetic.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::calibration
{
namespace
{

TEST(CsvIo, RoundTripPreservesValues)
{
    const auto q20 = topology::ibmQ20Tokyo();
    SyntheticSource src(q20, SyntheticParams{}, 21);
    const Snapshot original = src.nextCycle();

    const Snapshot reloaded =
        fromCsv(toCsv(original, q20), q20);
    for (int q = 0; q < q20.numQubits(); ++q) {
        EXPECT_NEAR(reloaded.qubit(q).t1Us,
                    original.qubit(q).t1Us, 1e-5);
        EXPECT_NEAR(reloaded.qubit(q).error1q,
                    original.qubit(q).error1q, 1e-7);
        EXPECT_NEAR(reloaded.qubit(q).readoutError,
                    original.qubit(q).readoutError, 1e-7);
    }
    for (std::size_t l = 0; l < q20.linkCount(); ++l)
        EXPECT_NEAR(reloaded.linkError(l),
                    original.linkError(l), 1e-7);
}

TEST(CsvIo, HeaderAndSectionsPresent)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const std::string csv =
        toCsv(test::uniformSnapshot(q5), q5);
    EXPECT_TRUE(startsWith(csv, "section,id,a,b"));
    EXPECT_NE(csv.find("qubit,0"), std::string::npos);
    EXPECT_NE(csv.find("link,0,0,1"), std::string::npos);
}

TEST(CsvIo, LinkRowsMatchByEndpointsNotOrder)
{
    const auto q5 = topology::ibmQ5Tenerife();
    Snapshot snap = test::uniformSnapshot(q5);
    snap.setLinkError(q5.linkIndex(3, 4), 0.077);
    // Reverse all lines after the header; parsing must not care.
    const auto lines = split(toCsv(snap, q5), '\n');
    std::string shuffled = lines[0] + "\n";
    for (std::size_t i = lines.size(); i > 1; --i) {
        if (!lines[i - 1].empty())
            shuffled += lines[i - 1] + "\n";
    }
    const Snapshot reloaded = fromCsv(shuffled, q5);
    EXPECT_NEAR(reloaded.linkError(q5, 3, 4), 0.077, 1e-9);
}

TEST(CsvIo, MissingRowsRejected)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const std::string csv =
        toCsv(test::uniformSnapshot(q5), q5);
    // Drop the last line (one link row).
    const auto cut = csv.rfind("link,5");
    EXPECT_THROW(fromCsv(csv.substr(0, cut), q5), VaqError);
}

TEST(CsvIo, MalformedRowsRejected)
{
    const auto q5 = topology::ibmQ5Tenerife();
    EXPECT_THROW(fromCsv("bogus,0,,,1,2,3,4,\n", q5), VaqError);
    EXPECT_THROW(fromCsv("qubit,0,1,2\n", q5), VaqError);
    EXPECT_THROW(
        fromCsv("link,0,0,4,,,,,0.5\n", q5), // 0-4 not coupled
        VaqError);
}

TEST(CsvIo, DuplicateRowsRejected)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const std::string csv =
        toCsv(test::uniformSnapshot(q5), q5);
    EXPECT_THROW(fromCsv(csv + "qubit,0,,,80,42,0.003,0.03,\n",
                         q5),
                 VaqError);
}

/** Grab the full what() of the CalibrationError a parse raises. */
std::string
parseFailure(const std::string &text,
             const topology::CouplingGraph &graph,
             const std::string &source)
{
    try {
        fromCsv(text, graph, source);
    } catch (const CalibrationError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected CalibrationError";
    return {};
}

TEST(CsvIo, MalformedRowsReportFileAndLine)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const std::string header =
        "section,id,a,b,t1_us,t2_us,error_1q,readout_error,"
        "error_2q\n";

    // Truncated row (wrong field count) on line 3.
    {
        const std::string msg = parseFailure(
            header + "qubit,0,,,80,42,0.003,0.03,\n" +
                "qubit,1,1,2\n",
            q5, "cal.csv");
        EXPECT_NE(msg.find("cal.csv:3:"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("wrong field count"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("got 4"), std::string::npos) << msg;
    }

    // Unknown section on line 2.
    {
        const std::string msg = parseFailure(
            header + "bogus,0,,,1,2,3,4,\n", q5, "cal.csv");
        EXPECT_NE(msg.find("cal.csv:2:"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("unknown CSV section"),
                  std::string::npos)
            << msg;
    }

    // Non-numeric field on line 2.
    {
        const std::string msg = parseFailure(
            header + "qubit,0,,,eighty,42,0.003,0.03,\n", q5,
            "cal.csv");
        EXPECT_NE(msg.find("cal.csv:2:"), std::string::npos)
            << msg;
    }

    // Duplicate link row: the second copy is the offender.
    {
        const std::string csv =
            toCsv(test::uniformSnapshot(q5), q5);
        const std::string msg = parseFailure(
            csv + "link,0,0,1,,,,,0.5\n", q5, "cal.csv");
        // Header + 5 qubit rows + 6 link rows, duplicate is 13.
        EXPECT_NE(msg.find("cal.csv:13:"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("duplicate link row"),
                  std::string::npos)
            << msg;
    }

    // Comment and blank lines still count toward line numbers.
    {
        const std::string msg = parseFailure(
            "# exported 2026-08-05\n\n" + header +
                "bogus,0,,,1,2,3,4,\n",
            q5, "cal.csv");
        EXPECT_NE(msg.find("cal.csv:4:"), std::string::npos)
            << msg;
    }
}

TEST(CsvIo, OutOfRangeLinkEndpointsRejected)
{
    // 2^32 must not wrap to qubit 0 and pass as the 0-1 link.
    const auto q5 = topology::ibmQ5Tenerife();
    std::string csv = toCsv(test::uniformSnapshot(q5), q5);
    const auto row = csv.find("link,0,0,1,");
    ASSERT_NE(row, std::string::npos);
    csv.replace(row, 11, "link,0,4294967296,1,");
    const std::string msg = parseFailure(csv, q5, "<csv>");
    // Header + 5 qubit rows, so the first link row is line 7.
    EXPECT_EQ(msg.rfind("<csv>:7: ", 0), 0u) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(CsvIo, MissingRowsNameTheSource)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const std::string csv =
        toCsv(test::uniformSnapshot(q5), q5);
    const auto cut = csv.rfind("link,5");
    try {
        fromCsv(csv.substr(0, cut), q5, "partial.csv");
        FAIL() << "expected CalibrationError";
    } catch (const CalibrationError &e) {
        EXPECT_NE(std::string(e.what()).find("partial.csv"),
                  std::string::npos);
        EXPECT_EQ(e.link(), 5);
    }
}

TEST(CsvIo, ValidationErrorsNameTheQubitOnce)
{
    // Snapshot::validate names the qubit; the loader's rethrow adds
    // the source and must not append the qubit suffix again.
    const auto q5 = topology::ibmQ5Tenerife();
    const std::string csv = toCsv(
        test::uniformSnapshot(q5, 0.04, 0.003, /*readout=*/1.5), q5);
    try {
        fromCsv(csv, q5, "cal.csv");
        FAIL() << "expected CalibrationError";
    } catch (const CalibrationError &e) {
        EXPECT_EQ(e.message(),
                  "cal.csv: readout error must be a probability "
                  "(qubit 0)");
        EXPECT_EQ(e.qubit(), 0);
        EXPECT_EQ(e.link(), -1);
    }
}

TEST(CsvIo, FileRoundTrip)
{
    const auto q5 = topology::ibmQ5Tenerife();
    const Snapshot snap = test::uniformSnapshot(q5, 0.033);
    const std::string path = "/tmp/vaq_csv_test.csv";
    saveCsv(path, snap, q5);
    const Snapshot reloaded = loadCsv(path, q5);
    EXPECT_NEAR(reloaded.linkError(0), 0.033, 1e-9);
    std::remove(path.c_str());
    EXPECT_THROW(loadCsv("/nonexistent/x.csv", q5), VaqError);
}

} // namespace
} // namespace vaq::calibration

/**
 * @file
 * Seeded mutation corpus for the vaqd compile-request wire format.
 *
 * core::toJson(CompileRequest) is rendered for the three service
 * fixtures (bv4, ghz6, qft5) under the baseline, vqm and vqa+vqm
 * policies, each with json::write and with json::writePretty (so line
 * splices have lines to work on), and every rendering is mutated
 * kMutantsPerFixture times by tests/mutator.hpp. json::parse +
 * compileRequestFromJson either throws VaqError or returns a request
 * whose toJson is a write -> parse -> write fixpoint.
 *
 * The outcome of every mutant (the error category and message, or the
 * re-written request) is pinned by one FNV-1a digest per mutant in
 * core/mutation/request_mutants.digest, so a reader change that moves
 * any error text or accepts different bytes fails here. Set
 * VAQ_UPDATE_GOLDEN=1 to rewrite the digest file (then inspect the
 * diff before committing).
 */
#include "core/compile_request.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "mutator.hpp"

namespace vaq::core
{
namespace
{

constexpr int kMutantsPerFixture = 150;
constexpr const char *kDigestFile =
    "/core/mutation/request_mutants.digest";

struct Fixture
{
    std::string name;
    std::string text;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        throw VaqError("cannot open fixture: " + path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

CompileRequest
readRequest(const std::string &text)
{
    const json::Value doc = json::parse(text, "request");
    return compileRequestFromJson(json::Cursor(doc));
}

std::vector<Fixture>
corpus()
{
    std::vector<Fixture> out;
    for (const char *program : {"bv4", "ghz6", "qft5"}) {
        const std::string qasm =
            readFile(std::string(VAQ_TEST_DATA_DIR) +
                     "/service/fixtures/" + program + ".qasm");
        for (const char *policy : {"baseline", "vqm", "vqa+vqm"}) {
            CompileRequest request;
            request.circuit = circuit::fromQasm(qasm);
            request.policy = {.name = policy};
            const json::Value value = toJson(request);
            const std::string name =
                std::string(program) + "/" + policy;
            out.push_back({name + "/compact", json::write(value)});
            out.push_back({name + "/pretty", json::writePretty(value)});
        }
    }
    return out;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = kHashSeed;
    for (const char c : bytes)
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<unsigned char>(c)));
    return h;
}

struct Outcome
{
    bool parsed = false;
    std::uint64_t digest = 0;
};

/** Read one mutant, check the invariants, and digest the outcome. */
Outcome
runMutant(const std::string &mutant, const std::string &label)
{
    Outcome outcome;
    std::string record;
    try {
        const std::string written = json::write(toJson(readRequest(mutant)));
        try {
            EXPECT_EQ(json::write(toJson(readRequest(written))), written)
                << label << ": request is not a fixpoint";
        } catch (const std::exception &e) {
            ADD_FAILURE() << label << ": re-written request is rejected: "
                          << e.what() << "\n"
                          << written;
        }
        outcome.parsed = true;
        record = "ok\n" + written;
    } catch (const VaqError &e) {
        record = std::string("error:") +
                 errorCategoryName(e.category()) + "\n" + e.message();
    } catch (const std::exception &e) {
        ADD_FAILURE() << label << ": non-VaqError exception: "
                      << e.what();
        record = std::string("foreign\n") + e.what();
    }
    outcome.digest = fnv1a(record);
    return outcome;
}

std::string
digestLine(const std::string &label, const Outcome &outcome)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(outcome.digest));
    return label + " " + (outcome.parsed ? "ok" : "error") + " " + hex;
}

TEST(RequestMutation, EveryMutantIsRejectedOrRoundTripsAndOutcomesArePinned)
{
    const std::vector<Fixture> fixtures = corpus();
    std::vector<std::string> donors;
    for (const Fixture &f : fixtures) {
        donors.push_back(f.text);
        ASSERT_NO_THROW(readRequest(f.text)) << f.name;
    }

    std::vector<std::string> actual;
    std::size_t parsedCount = 0;
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
        for (int j = 0; j < kMutantsPerFixture; ++j) {
            Rng rng(hashCombine(hashCombine(kHashSeed, std::uint64_t{i}),
                                static_cast<std::uint64_t>(j)));
            const std::string mutant =
                test::mutate(fixtures[i].text, rng, donors);
            const std::string label =
                fixtures[i].name + "#" + std::to_string(j);
            const Outcome outcome = runMutant(mutant, label);
            parsedCount += outcome.parsed ? 1 : 0;
            actual.push_back(digestLine(label, outcome));
        }
    }
    // Both outcomes must be represented, or the corpus has
    // degenerated into all-valid or all-garbage inputs.
    EXPECT_GT(parsedCount, actual.size() / 50)
        << parsedCount << " of " << actual.size();
    EXPECT_LT(parsedCount, actual.size() / 2)
        << parsedCount << " of " << actual.size();

    const std::string path = std::string(VAQ_TEST_DATA_DIR) + kDigestFile;
    if (std::getenv("VAQ_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        if (!out.good())
            throw VaqError("cannot write digests: " + path);
        for (const std::string &line : actual)
            out << line << "\n";
        GTEST_SKIP() << "rewrote " << path;
    }
    std::vector<std::string> expected;
    std::istringstream in(readFile(path));
    for (std::string line; std::getline(in, line);)
        expected.push_back(line);
    ASSERT_EQ(actual.size(), expected.size());
    int reported = 0;
    for (std::size_t k = 0; k < actual.size(); ++k) {
        if (actual[k] != expected[k] && reported++ < 10) {
            ADD_FAILURE() << "outcome changed: expected " << expected[k]
                          << ", got " << actual[k];
        }
    }
    EXPECT_EQ(reported, 0) << "mutant outcomes differ from the digests";
}

} // namespace
} // namespace vaq::core

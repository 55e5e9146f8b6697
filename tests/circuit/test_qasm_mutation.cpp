/**
 * @file
 * Seeded mutation corpus for the QASM reader.
 *
 * Every fixture under circuit/golden/ and circuit/malformed/, plus
 * the writer's rendering of the Table 1 suite mapped onto IBM-Q20,
 * is mutated kMutantsPerFixture times by tests/mutator.hpp. Each
 * mutant must either parse or raise VaqError located as
 * "source:line:col: ", and a parsed mutant's rendering must be a
 * write -> parse -> write fixpoint.
 *
 * The outcome of every mutant (the error category and message, or
 * the rendering plus gate lines) is pinned by one FNV-1a digest per
 * mutant in circuit/mutation/qasm_mutants.digest, so a reader
 * rewrite has to reproduce the reader's exact behaviour on bad
 * bytes, not just its behaviour on good ones. The mapped fixtures
 * come from the vqa+vqm mapper, so a change to its output (which the
 * service goldens would also show) moves their digests too. Set
 * VAQ_UPDATE_GOLDEN=1 to rewrite the digest file (then inspect the
 * diff before committing).
 */
#include "circuit/qasm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "core/mapper.hpp"
#include "mutator.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::circuit
{
namespace
{

constexpr int kMutantsPerFixture = 100;
constexpr const char *kSource = "mutant.qasm";
constexpr const char *kDigestFile = "/circuit/mutation/qasm_mutants.digest";

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

/** The golden and malformed fixtures by name, then the mapped suite. */
std::vector<Fixture>
corpus()
{
    std::vector<Fixture> out;
    for (const char *dir : {"golden", "malformed"}) {
        std::vector<std::string> names;
        const std::filesystem::path root =
            std::filesystem::path(VAQ_TEST_DATA_DIR) / "circuit" / dir;
        for (const auto &entry :
             std::filesystem::directory_iterator(root)) {
            if (entry.path().extension() == ".qasm")
                names.push_back(entry.path().filename().string());
        }
        std::sort(names.begin(), names.end());
        for (const std::string &name : names) {
            out.push_back({std::string(dir) + "/" + name,
                           readFile((root / name).string())});
        }
    }
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    Rng rng(19);
    const calibration::Snapshot snapshot = test::randomSnapshot(q20, rng);
    const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
    for (const workloads::Workload &w : workloads::standardSuite(q20)) {
        out.push_back({"mapped/" + w.name,
                       toQasm(mapper.map(w.circuit, q20, snapshot)
                                  .physical)});
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

/** True when `message` starts with "<kSource>:<line>:<col>: ". */
bool
located(const std::string &message)
{
    const std::string prefix = std::string(kSource) + ":";
    if (message.rfind(prefix, 0) != 0)
        return false;
    std::size_t pos = prefix.size();
    for (int field = 0; field < 2; ++field) {
        const std::size_t digits = pos;
        while (pos < message.size() &&
               std::isdigit(static_cast<unsigned char>(message[pos])))
            ++pos;
        if (pos == digits || pos >= message.size() ||
            message[pos] != ':')
            return false;
        ++pos;
    }
    return pos < message.size() && message[pos] == ' ';
}

struct Outcome
{
    bool parsed = false;
    std::uint64_t digest = 0;
};

/** Parse one mutant, check the invariants, and digest the outcome. */
Outcome
runMutant(const std::string &mutant, const std::string &label)
{
    Outcome outcome;
    std::string record;
    try {
        const ParsedQasm parsed = parseQasm(mutant, kSource);
        const std::string written = toQasm(parsed.circuit);
        try {
            EXPECT_EQ(toQasm(fromQasm(written)), written)
                << label << ": rendering is not a fixpoint";
        } catch (const std::exception &e) {
            ADD_FAILURE() << label << ": rendering does not parse: "
                          << e.what();
        }
        outcome.parsed = true;
        record = "ok\n" + written + "lines:";
        for (const int line : parsed.gateLines) {
            record += ' ';
            record += std::to_string(line);
        }
    } catch (const VaqError &e) {
        EXPECT_TRUE(located(e.message()))
            << label << ": unlocated error: " << e.message();
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

TEST(QasmMutation, EveryMutantParsesOrFailsLocatedAndOutcomesArePinned)
{
    const std::vector<Fixture> fixtures = corpus();
    std::vector<std::string> donors;
    for (const Fixture &f : fixtures)
        donors.push_back(f.text);

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
    ASSERT_GE(actual.size(), 2000u);
    // Both outcomes must be represented, or the corpus has
    // degenerated into all-valid or all-garbage inputs (about 1 in
    // 10 mutants parses).
    EXPECT_GT(parsedCount, actual.size() / 20);
    EXPECT_LT(parsedCount, actual.size() / 2);

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
} // namespace vaq::circuit

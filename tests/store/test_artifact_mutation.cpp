/**
 * @file
 * Seeded mutation corpus for the compile-artifact record parser.
 *
 * The records of the Table 1 suite mapped on IBM-Q20 are mutated
 * kMutantsPerFixture times each by tests/mutator.hpp, splicing lines
 * from every record. Each mutant's `sum` line is then recomputed so
 * the damage gets past the checksum and reaches field validation.
 * parseArtifact must never throw: it returns nullopt, or a record
 * whose re-serialization parses back to the same key and artifact
 * and is a write -> parse -> write fixpoint.
 */
#include "store/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "calibration/synthetic.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "mutator.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::store
{
namespace
{

constexpr int kMutantsPerFixture = 120;

/** Replace the record's trailing `sum` line (if any) by the FNV-1a
 *  checksum of everything before it, as serializeArtifact writes. */
std::string
resum(const std::string &text)
{
    const std::size_t sum = text.rfind("\nsum ");
    std::string payload =
        sum == std::string::npos ? text : text.substr(0, sum + 1);
    std::uint64_t h = kHashSeed;
    for (const unsigned char c : payload)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return payload + "sum " + hex + "\n";
}

/** True when the mutant parsed; checks the invariants either way. */
bool
runMutant(const std::string &mutant, const std::string &label)
{
    std::optional<std::pair<ArtifactKey, CompileArtifact>> parsed;
    try {
        parsed = parseArtifact(mutant);
    } catch (const std::exception &e) {
        ADD_FAILURE() << label << ": parseArtifact threw: " << e.what();
        return false;
    }
    if (!parsed.has_value())
        return false;
    const std::string written =
        serializeArtifact(parsed->first, parsed->second);
    const auto again = parseArtifact(written);
    if (!again.has_value()) {
        ADD_FAILURE() << label << ": re-serialized record is a miss";
        return true;
    }
    EXPECT_EQ(again->first, parsed->first) << label;
    EXPECT_TRUE(again->second == parsed->second) << label;
    EXPECT_EQ(serializeArtifact(again->first, again->second), written)
        << label << ": record is not a fixpoint";
    return true;
}

TEST(ArtifactMutation, EveryMutantIsAMissOrARoundTrippingRecord)
{
    const topology::CouplingGraph graph = topology::ibmQ20Tokyo();
    const calibration::Snapshot snapshot =
        calibration::SyntheticSource(graph, {}, 7).nextCycle();
    const core::PolicySpec spec{.name = "baseline"};
    const core::Mapper mapper = core::makeMapper(spec);

    std::vector<std::string> records;
    for (const workloads::Workload &w : workloads::standardSuite(graph)) {
        const core::MappedCircuit mapped =
            mapper.map(w.circuit, graph, snapshot);
        records.push_back(serializeArtifact(
            makeArtifactKey(w.circuit, graph, snapshot, spec),
            makeArtifact(mapped, 0.5, graph, snapshot)));
        ASSERT_TRUE(parseArtifact(records.back()).has_value()) << w.name;
    }

    std::size_t total = 0;
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        for (int j = 0; j < kMutantsPerFixture; ++j) {
            Rng rng(hashCombine(hashCombine(kHashSeed, std::uint64_t{i}),
                                static_cast<std::uint64_t>(j)));
            const std::string mutant =
                resum(test::mutate(records[i], rng, records));
            parsed += runMutant(mutant, "record " + std::to_string(i) +
                                            "#" + std::to_string(j))
                          ? 1
                          : 0;
            ++total;
        }
    }
    // Both outcomes must be represented, or the corpus has
    // degenerated into all-valid or all-garbage inputs.
    EXPECT_GT(parsed, total / 50) << parsed << " of " << total;
    EXPECT_LT(parsed, total / 2) << parsed << " of " << total;
}

} // namespace
} // namespace vaq::store

/**
 * @file
 * Seeded mutation corpus for the calibration CSV reader.
 *
 * The toCsv renderings of seeded synthetic snapshots on IBM-Q5 and
 * IBM-Q20 are mutated kMutantsPerFixture times each by
 * tests/mutator.hpp, splicing lines from every fixture. Each mutant
 * must either parse or raise VaqError whose message starts with the
 * "<csv>:" source label, and a parsed snapshot's rendering must be a
 * write -> parse -> write fixpoint.
 */
#include "calibration/csv_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "calibration/synthetic.hpp"
#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "mutator.hpp"
#include "topology/layouts.hpp"

namespace vaq::calibration
{
namespace
{

constexpr int kSnapshotsPerMachine = 3;
constexpr int kMutantsPerFixture = 200;
constexpr const char *kSource = "<csv>";

struct Fixture
{
    const topology::CouplingGraph *graph;
    std::string label;
    std::string text;
};

/** True when the mutant parsed; checks the invariants either way. */
bool
runMutant(const std::string &mutant,
          const topology::CouplingGraph &graph,
          const std::string &label)
{
    std::string written;
    try {
        written = toCsv(fromCsv(mutant, graph, kSource), graph);
    } catch (const VaqError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(std::string(kSource) + ":",
                                              0),
                  0u)
            << label << ": unlabelled error: " << e.what();
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << label << ": non-VaqError exception: "
                      << e.what();
        return false;
    }
    try {
        EXPECT_EQ(toCsv(fromCsv(written, graph, kSource), graph),
                  written)
            << label << ": rendering is not a fixpoint";
    } catch (const std::exception &e) {
        ADD_FAILURE() << label << ": rendering does not parse: "
                      << e.what();
    }
    return true;
}

TEST(CsvMutation, EveryMutantParsesOrFailsLabelledAndRoundTrips)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    std::vector<Fixture> fixtures;
    for (const topology::CouplingGraph *graph : {&q5, &q20}) {
        for (int seed = 1; seed <= kSnapshotsPerMachine; ++seed) {
            SyntheticSource source(*graph, SyntheticParams{},
                                   static_cast<std::uint64_t>(seed));
            fixtures.push_back({graph,
                                graph->name() + "/seed" +
                                    std::to_string(seed),
                                toCsv(source.nextCycle(), *graph)});
        }
    }
    std::vector<std::string> donors;
    for (const Fixture &f : fixtures)
        donors.push_back(f.text);

    std::size_t total = 0;
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
        for (int j = 0; j < kMutantsPerFixture; ++j) {
            Rng rng(hashCombine(hashCombine(kHashSeed, std::uint64_t{i}),
                                static_cast<std::uint64_t>(j)));
            const std::string mutant =
                test::mutate(fixtures[i].text, rng, donors);
            const std::string label =
                fixtures[i].label + "#" + std::to_string(j);
            parsed += runMutant(mutant, *fixtures[i].graph, label) ? 1
                                                                   : 0;
            ++total;
        }
    }
    ASSERT_GE(total, 1000u);
    // Both outcomes must be represented, or the corpus has
    // degenerated into all-valid or all-garbage inputs.
    EXPECT_GT(parsed, total / 50) << parsed << " of " << total;
    EXPECT_LT(parsed, total / 2) << parsed << " of " << total;
}

} // namespace
} // namespace vaq::calibration

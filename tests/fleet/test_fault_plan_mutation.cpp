/**
 * @file
 * Seeded mutation corpus for the FaultPlan JSON reader.
 *
 * Plans drawn by generateFaultPlan (several seeds and fault rates) are
 * serialized with json::write, and with json::writePretty so line
 * splices have lines to work on, then mutated kMutantsPerFixture times
 * each by tests/mutator.hpp, splicing lines from every fixture.
 * json::parse + faultPlanFromJson either throws VaqError or returns a
 * plan whose toJson is a write -> parse -> write fixpoint.
 */
#include "fleet/fault_plan.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "mutator.hpp"

namespace vaq::fleet
{
namespace
{

constexpr int kMutantsPerFixture = 300;

FaultPlan
readPlan(const std::string &text)
{
    const json::Value doc = json::parse(text, "plan");
    return faultPlanFromJson(json::Cursor(doc));
}

/** True when the mutant parsed; checks the invariants either way. */
bool
runMutant(const std::string &mutant, const std::string &label)
{
    FaultPlan plan;
    try {
        plan = readPlan(mutant);
    } catch (const VaqError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << label << ": threw a non-VaqError: " << e.what();
        return false;
    }
    const std::string written = json::write(toJson(plan));
    try {
        EXPECT_EQ(json::write(toJson(readPlan(written))), written)
            << label << ": plan is not a fixpoint";
    } catch (const std::exception &e) {
        ADD_FAILURE() << label << ": re-written plan is rejected: "
                      << e.what() << "\n" << written;
    }
    return true;
}

TEST(FaultPlanMutation, EveryMutantIsRejectedOrRoundTrips)
{
    std::vector<std::string> fixtures;
    for (const double rate : {1.0, 3.0, 6.0}) {
        for (const std::uint64_t seed : {5u, 11u}) {
            FaultPlanParams params;
            params.faultsPerMachine = rate;
            const json::Value plan =
                toJson(generateFaultPlan(4, params, seed));
            fixtures.push_back(json::write(plan));
            fixtures.push_back(json::writePretty(plan));
            ASSERT_NO_THROW(readPlan(fixtures.back()));
        }
    }

    std::size_t total = 0;
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
        for (int j = 0; j < kMutantsPerFixture; ++j) {
            Rng rng(hashCombine(hashCombine(kHashSeed, std::uint64_t{i}),
                                static_cast<std::uint64_t>(j)));
            const std::string mutant =
                test::mutate(fixtures[i], rng, fixtures);
            parsed += runMutant(mutant, "plan " + std::to_string(i) +
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
} // namespace vaq::fleet

/**
 * @file
 * FaultPlan tests: kind-name and taxonomy mappings, deterministic
 * seeded generation, the (timeUs, machine, kind) sort order, and
 * the JSON schema round-trip.
 */
#include "fleet/fault_plan.hpp"

#include <gtest/gtest.h>

#include <string>

namespace vaq::fleet
{
namespace
{

TEST(FaultPlan, KindNamesRoundTrip)
{
    const FaultKind kinds[] = {
        FaultKind::Outage, FaultKind::CalCorruption,
        FaultKind::LatencySpike, FaultKind::PartialQuarantine};
    for (FaultKind kind : kinds)
        EXPECT_EQ(faultKindFromName(faultKindName(kind)), kind);
    EXPECT_STREQ(faultKindName(FaultKind::Outage), "outage");
    EXPECT_STREQ(faultKindName(FaultKind::CalCorruption),
                 "cal-corruption");
    EXPECT_THROW(faultKindFromName("meteor-strike"), VaqError);
}

TEST(FaultPlan, KindsMapOntoErrorTaxonomy)
{
    // Injected faults surface through the same PR-4 categories as
    // organic failures — no side-channel statuses.
    EXPECT_EQ(faultCategory(FaultKind::Outage),
              ErrorCategory::Internal);
    EXPECT_EQ(faultCategory(FaultKind::CalCorruption),
              ErrorCategory::Calibration);
    EXPECT_EQ(faultCategory(FaultKind::LatencySpike),
              ErrorCategory::Timeout);
    EXPECT_EQ(faultCategory(FaultKind::PartialQuarantine),
              ErrorCategory::Calibration);
}

TEST(FaultPlan, GenerationIsDeterministicPerSeed)
{
    FaultPlanParams params;
    params.horizonUs = 5e5;
    params.faultsPerMachine = 4.0;
    const FaultPlan a = generateFaultPlan(4, params, 42);
    const FaultPlan b = generateFaultPlan(4, params, 42);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(json::write(toJson(a)), json::write(toJson(b)));

    const FaultPlan c = generateFaultPlan(4, params, 43);
    EXPECT_NE(json::write(toJson(a)), json::write(toJson(c)));
}

TEST(FaultPlan, GeneratedEventsAreSortedAndInHorizon)
{
    FaultPlanParams params;
    params.horizonUs = 3e5;
    params.faultsPerMachine = 6.0;
    const FaultPlan plan = generateFaultPlan(3, params, 7);
    ASSERT_FALSE(plan.empty());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const FaultEvent &event = plan.events[i];
        EXPECT_GE(event.timeUs, 0.0);
        EXPECT_LT(event.timeUs, params.horizonUs);
        EXPECT_LT(event.machine, 3u);
        if (i > 0) {
            EXPECT_LE(plan.events[i - 1].timeUs, event.timeUs);
        }
        if (event.kind == FaultKind::LatencySpike) {
            EXPECT_GT(event.magnitude, 1.0);
        }
        if (event.kind == FaultKind::Outage) {
            EXPECT_GT(event.durationUs, 0.0);
        }
    }
}

TEST(FaultPlan, WeightsSteerKindMix)
{
    FaultPlanParams params;
    params.horizonUs = 1e6;
    params.faultsPerMachine = 30.0;
    params.outageWeight = 1.0;
    params.corruptionWeight = 0.0;
    params.spikeWeight = 0.0;
    params.quarantineWeight = 0.0;
    const FaultPlan plan = generateFaultPlan(2, params, 3);
    ASSERT_FALSE(plan.empty());
    for (const FaultEvent &event : plan.events)
        EXPECT_EQ(event.kind, FaultKind::Outage);
}

TEST(FaultPlan, JsonRoundTripsByteIdentically)
{
    FaultPlanParams params;
    params.horizonUs = 4e5;
    params.faultsPerMachine = 5.0;
    const FaultPlan plan = generateFaultPlan(4, params, 11);
    ASSERT_FALSE(plan.empty());

    const std::string wire = json::write(toJson(plan));
    const FaultPlan parsed = faultPlanFromJson(
        json::Cursor(json::parse(wire, "plan")));
    ASSERT_EQ(parsed.size(), plan.size());
    EXPECT_EQ(json::write(toJson(parsed)), wire);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind);
        EXPECT_EQ(parsed.events[i].machine,
                  plan.events[i].machine);
        EXPECT_DOUBLE_EQ(parsed.events[i].timeUs,
                         plan.events[i].timeUs);
        EXPECT_DOUBLE_EQ(parsed.events[i].durationUs,
                         plan.events[i].durationUs);
        EXPECT_DOUBLE_EQ(parsed.events[i].magnitude,
                         plan.events[i].magnitude);
    }
}

TEST(FaultPlan, ScriptedEventJsonShape)
{
    FaultEvent event;
    event.timeUs = 1500.0;
    event.machine = 2;
    event.kind = FaultKind::LatencySpike;
    event.durationUs = 8000.0;
    event.magnitude = 6.0;
    const json::Value value = toJson(event);
    const json::Cursor cursor(value);
    EXPECT_EQ(cursor.at("kind").asString(), "latency-spike");
    EXPECT_EQ(cursor.at("machine").asInt(), 2);
    EXPECT_DOUBLE_EQ(cursor.at("timeUs").asNumber(), 1500.0);
    const FaultEvent parsed = faultEventFromJson(cursor);
    EXPECT_EQ(parsed.kind, FaultKind::LatencySpike);
    EXPECT_DOUBLE_EQ(parsed.magnitude, 6.0);
}

TEST(FaultPlan, MachineIndexOutsideItsRangeIsRefused)
{
    // A negative index would wrap to a huge size_t whose toJson
    // does not parse back; 1e20 is outside what asInt() converts.
    for (const char *machine : {"-1", "1e20"}) {
        const std::string text =
            std::string("{\"events\":[{\"timeUs\":1,\"machine\":") +
            machine + ",\"kind\":\"outage\"}]}";
        try {
            faultPlanFromJson(json::Cursor(json::parse(text, "plan")));
            ADD_FAILURE() << "machine " << machine << " was accepted";
        } catch (const VaqError &e) {
            EXPECT_NE(std::string(e.message())
                          .find("$.events[0].machine"),
                      std::string::npos)
                << e.message();
        }
    }
}

} // namespace
} // namespace vaq::fleet

#include "fleet/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace vaq::fleet
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Outage: return "outage";
    case FaultKind::CalCorruption: return "cal-corruption";
    case FaultKind::LatencySpike: return "latency-spike";
    case FaultKind::PartialQuarantine: return "partial-quarantine";
    }
    return "outage";
}

FaultKind
faultKindFromName(const std::string &name)
{
    if (name == "outage")
        return FaultKind::Outage;
    if (name == "cal-corruption")
        return FaultKind::CalCorruption;
    if (name == "latency-spike")
        return FaultKind::LatencySpike;
    if (name == "partial-quarantine")
        return FaultKind::PartialQuarantine;
    throw VaqError("unknown fault kind '" + name +
                   "' (expected outage, cal-corruption, "
                   "latency-spike or partial-quarantine)");
}

ErrorCategory
faultCategory(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Outage: return ErrorCategory::Internal;
    case FaultKind::CalCorruption: return ErrorCategory::Calibration;
    case FaultKind::LatencySpike: return ErrorCategory::Timeout;
    case FaultKind::PartialQuarantine:
        return ErrorCategory::Calibration;
    }
    return ErrorCategory::Internal;
}

namespace
{

/** LatencySpike service-time multiplier. */
constexpr double kSpikeFactor = 8.0;
/** CalCorruption poisoned-qubit fraction. */
constexpr double kCorruptionFraction = 0.8;
/** PartialQuarantine dead-link fraction. */
constexpr double kQuarantineFraction = 0.35;

void
sortPlan(std::vector<FaultEvent> &events)
{
    std::sort(events.begin(), events.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  if (a.timeUs != b.timeUs)
                      return a.timeUs < b.timeUs;
                  if (a.machine != b.machine)
                      return a.machine < b.machine;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
}

} // namespace

FaultPlan
generateFaultPlan(std::size_t machines,
                  const FaultPlanParams &params, std::uint64_t seed)
{
    require(params.horizonUs > 0.0,
            "fault plan horizon must be positive");
    require(params.faultsPerMachine >= 0.0,
            "faultsPerMachine must be non-negative");
    const double weights[4] = {
        params.outageWeight, params.corruptionWeight,
        params.spikeWeight, params.quarantineWeight};
    double total = 0.0;
    for (double w : weights) {
        require(w >= 0.0, "fault kind weights must be non-negative");
        total += w;
    }
    require(total > 0.0, "at least one fault kind weight must be "
                         "positive");

    FaultPlan plan;
    for (std::size_t m = 0; m < machines; ++m) {
        // One independent stream per machine so adding a machine
        // never perturbs the plans of the existing ones.
        Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (m + 1)));
        const double meanGapUs =
            params.horizonUs / std::max(params.faultsPerMachine, 1e-9);
        double t = meanGapUs * -std::log(1.0 - rng.uniform());
        while (t < params.horizonUs) {
            FaultEvent event;
            event.timeUs = t;
            event.machine = m;
            double pick = rng.uniform() * total;
            if ((pick -= weights[0]) < 0.0) {
                event.kind = FaultKind::Outage;
                event.durationUs = params.meanOutageUs *
                                   -std::log(1.0 - rng.uniform());
            } else if ((pick -= weights[1]) < 0.0) {
                event.kind = FaultKind::CalCorruption;
                event.magnitude = kCorruptionFraction;
            } else if ((pick -= weights[2]) < 0.0) {
                event.kind = FaultKind::LatencySpike;
                event.durationUs = params.meanSpikeUs *
                                   -std::log(1.0 - rng.uniform());
                event.magnitude = kSpikeFactor;
            } else {
                event.kind = FaultKind::PartialQuarantine;
                event.magnitude = kQuarantineFraction;
            }
            plan.events.push_back(event);
            t += meanGapUs * -std::log(1.0 - rng.uniform());
        }
    }
    sortPlan(plan.events);
    return plan;
}

json::Value
toJson(const FaultEvent &event)
{
    json::Value v = json::Value::object();
    v.set("timeUs", json::Value::number(event.timeUs));
    v.set("machine", json::Value::number(event.machine));
    v.set("kind",
          json::Value::string(faultKindName(event.kind)));
    v.set("durationUs", json::Value::number(event.durationUs));
    v.set("magnitude", json::Value::number(event.magnitude));
    return v;
}

json::Value
toJson(const FaultPlan &plan)
{
    json::Value v = json::Value::object();
    json::Value events = json::Value::array();
    for (const FaultEvent &event : plan.events)
        events.push(toJson(event));
    v.set("events", std::move(events));
    return v;
}

FaultEvent
faultEventFromJson(const json::Cursor &cursor)
{
    FaultEvent event;
    event.timeUs = cursor.at("timeUs").asNumber();
    const json::Cursor machine = cursor.at("machine");
    const std::int64_t index = machine.asInt();
    if (index < 0)
        throw VaqError(machine.path() +
                       ": machine index must be non-negative");
    event.machine = static_cast<std::size_t>(index);
    event.kind = faultKindFromName(cursor.at("kind").asString());
    if (auto d = cursor.get("durationUs"))
        event.durationUs = d->asNumber();
    if (auto m = cursor.get("magnitude"))
        event.magnitude = m->asNumber();
    return event;
}

FaultPlan
faultPlanFromJson(const json::Cursor &cursor)
{
    FaultPlan plan;
    const json::Cursor events = cursor.at("events");
    for (std::size_t i = 0; i < events.arraySize(); ++i)
        plan.events.push_back(faultEventFromJson(events.at(i)));
    sortPlan(plan.events);
    return plan;
}

} // namespace vaq::fleet

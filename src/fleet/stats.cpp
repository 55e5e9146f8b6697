#include "fleet/stats.hpp"

namespace vaq::fleet
{

json::Value
FleetSummary::toJson() const
{
    json::Value v = json::Value::object();
    v.set("policy", json::Value::string(policy));
    v.set("failover", json::Value::boolean(failover));
    v.set("jobs", json::Value::number(jobs));
    v.set("completed", json::Value::number(completed));
    v.set("withinDeadline", json::Value::number(withinDeadline));
    v.set("failed", json::Value::number(failed));
    v.set("timedOut", json::Value::number(timedOut));
    v.set("degradedCopies", json::Value::number(degradedCopies));
    v.set("retries", json::Value::number(retries));
    v.set("failovers", json::Value::number(failovers));
    v.set("replicatedJobs", json::Value::number(replicatedJobs));
    v.set("faultsInjected", json::Value::number(faultsInjected));
    v.set("successfulTrials",
          json::Value::number(successfulTrials));
    v.set("makespanUs", json::Value::number(makespanUs));
    v.set("stpt", json::Value::number(stpt));
    v.set("meanLatencyUs", json::Value::number(meanLatencyUs));
    json::Value ms = json::Value::array();
    for (const MachineSummary &m : machines) {
        json::Value mv = json::Value::object();
        mv.set("name", json::Value::string(m.name));
        mv.set("placements", json::Value::number(m.placements));
        mv.set("completed", json::Value::number(m.completed));
        mv.set("failed", json::Value::number(m.failed));
        mv.set("breakerOpens",
               json::Value::number(m.breakerOpens));
        mv.set("rollovers", json::Value::number(
                                static_cast<std::size_t>(
                                    m.rollovers)));
        mv.set("downtimeUs", json::Value::number(m.downtimeUs));
        mv.set("busyUs", json::Value::number(m.busyUs));
        mv.set("storeExactHits",
               json::Value::number(m.storeExactHits));
        mv.set("storeDeltaReuse",
               json::Value::number(m.storeDeltaReuse));
        mv.set("storeMisses", json::Value::number(m.storeMisses));
        ms.push(std::move(mv));
    }
    v.set("machines", std::move(ms));
    return v;
}

std::string
FleetSummary::fingerprint() const
{
    return json::write(toJson());
}

StatsHub &
StatsHub::global()
{
    static StatsHub hub;
    return hub;
}

void
StatsHub::publish(const std::string &name,
                  const FleetSummary &summary)
{
    json::Value v = summary.toJson();
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &[existing, value] : _published) {
        if (existing == name) {
            value = std::move(v);
            return;
        }
    }
    _published.emplace_back(name, std::move(v));
}

json::Value
StatsHub::snapshot() const
{
    json::Value fleets = json::Value::object();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (const auto &[name, value] : _published)
            fleets.set(name, value);
    }
    json::Value v = json::Value::object();
    v.set("fleets", std::move(fleets));
    return v;
}

} // namespace vaq::fleet

/**
 * @file
 * /v1/fleet/stats over a real loopback HttpServer: published
 * StatsHub summaries and the ambient fleet.* counters come back in
 * one deterministic JSON body; wrong methods 405.
 */
#include <gtest/gtest.h>

#include <vector>

#include "calibration/synthetic.hpp"
#include "common/json.hpp"
#include "fleet/sim.hpp"
#include "fleet/stats.hpp"
#include "obs/metrics.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::fleet
{
namespace
{

class FleetServiceFixture
{
  public:
    FleetServiceFixture()
        : graph(topology::ibmQ20Tokyo()),
          snapshot(calibration::SyntheticSource(
                       graph, calibration::SyntheticParams{}, 7)
                       .nextCycle()),
          service(graph, snapshot),
          server(service::HttpServerOptions{},
                 [this](const service::HttpRequest &request) {
                     return service.handle(request);
                 })
    {
        obs::setEnabled(true);
    }

    ~FleetServiceFixture() { server.stop(); }

    int port() const { return server.port(); }

    topology::CouplingGraph graph;
    calibration::Snapshot snapshot;
    service::CompileService service;
    service::HttpServer server;
};

/** Run a tiny fleet that publishes its summary as `name`. */
FleetSummary
publishFleet(const std::string &name)
{
    std::vector<circuit::Circuit> workload;
    workload.push_back(workloads::ghz(4));
    workload.push_back(workloads::qft(4));

    BackendSpec spec;
    spec.name = "solo";
    spec.graph = topology::grid(4, 4);
    spec.calibrationSeed = 11;

    JobStreamParams stream;
    stream.count = 8;
    const std::vector<FleetJob> jobs =
        makeJobStream(workload.size(), stream, 3);

    FleetOptions options;
    options.seed = 3;
    options.statsName = name;
    FleetSim sim({spec}, workload, options);
    return sim.run(jobs);
}

TEST(FleetServiceStats, EmptyHubStillServesShape)
{
    // The hub is process-global and keeps what is published, so this
    // test comes before the one that publishes (ctest also runs each
    // test in a process of its own).
    FleetServiceFixture fx;
    const service::HttpResponse response = service::httpExchange(
        fx.port(), "GET", "/v1/fleet/stats");
    ASSERT_EQ(response.status, 200) << response.body;
    const json::Value parsed =
        json::parse(response.body, "response");
    const json::Cursor body(parsed);
    EXPECT_EQ(json::write(body.at("fleets").value()), "{}");
}

TEST(FleetServiceStats, ReturnsPublishedSummariesAndCounters)
{
    FleetServiceFixture fx;
    const FleetSummary summary = publishFleet("loop-fleet");

    const service::HttpResponse response = service::httpExchange(
        fx.port(), "GET", "/v1/fleet/stats");
    ASSERT_EQ(response.status, 200) << response.body;
    const json::Value parsed =
        json::parse(response.body, "response");
    const json::Cursor body(parsed);

    const json::Cursor fleet =
        body.at("fleets").at("loop-fleet");
    EXPECT_EQ(fleet.at("jobs").asInt(),
              static_cast<std::int64_t>(summary.jobs));
    EXPECT_EQ(fleet.at("completed").asInt(),
              static_cast<std::int64_t>(summary.completed));
    // The published summary is the byte-identity surface.
    EXPECT_EQ(json::write(fleet.value()), summary.fingerprint());

    // The fleet.* counters ride along (telemetry was on while the
    // fleet ran, so at least the placement counter moved).
    const json::Cursor counters = body.at("counters");
    EXPECT_GT(counters.at("fleet.placements").asInt(), 0);
}

TEST(FleetServiceStats, PostIsMethodNotAllowed)
{
    FleetServiceFixture fx;
    const service::HttpResponse response = service::httpExchange(
        fx.port(), "POST", "/v1/fleet/stats", "{}");
    EXPECT_EQ(response.status, 405);
}

} // namespace
} // namespace vaq::fleet

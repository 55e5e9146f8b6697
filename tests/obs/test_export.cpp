#include <gtest/gtest.h>

#include "common/json.hpp"
#include "obs/export.hpp"

namespace vaq::obs
{
namespace
{

/**
 * A snapshot with fixed, binary-exact values, so every exporter's
 * output is byte-deterministic and can be compared against embedded
 * golden text.
 */
MetricsSnapshot
goldenSnapshot()
{
    Registry registry;
    registry.counter("cache.matrix.hits").add(7);
    registry
        .counter("mapper.portfolio.winner{policy=\"vqm\","
                 "config=\"baseline\"}")
        .add(3);
    registry.gauge("batch.queue.depth").set(2.5);
    Histogram &h =
        registry.histogram("mapper.route.seconds", {0.5, 1.0});
    h.record(0.25);
    h.record(0.5);
    h.record(0.75);
    h.record(0.5);
    return registry.snapshot();
}

TEST(ObsExport, JsonGolden)
{
    const std::string expected = R"({
  "counters": {
    "cache.matrix.hits": 7,
    "mapper.portfolio.winner{policy=\"vqm\",config=\"baseline\"}": 3
  },
  "gauges": {
    "batch.queue.depth": 2.5
  },
  "histograms": {
    "mapper.route.seconds": {
      "count": 4,
      "sum": 2,
      "mean": 0.5,
      "min": 0.25,
      "max": 0.75,
      "bounds": [0.5, 1],
      "counts": [3, 1, 0]
    }
  }
}
)";
    EXPECT_EQ(exportJson(goldenSnapshot()), expected);
}

TEST(ObsExport, JsonEmptySnapshot)
{
    const std::string expected = R"({
  "counters": {},
  "gauges": {},
  "histograms": {}
}
)";
    EXPECT_EQ(exportJson(MetricsSnapshot{}), expected);
}

TEST(ObsExport, JsonEscapesControlCharactersInNames)
{
    Registry registry;
    registry.counter("bad\rcounter\x01").add(2);
    registry.gauge("gauge\bname").set(1.0);
    registry.histogram("hist\fname").record(0.5);
    const json::Value doc =
        json::parse(exportJson(registry.snapshot()), "metrics");
    EXPECT_EQ(doc.find("counters")->find("bad\rcounter\x01")->asNumber(),
              2.0);
    EXPECT_NE(doc.find("gauges")->find("gauge\bname"), nullptr);
    EXPECT_NE(doc.find("histograms")->find("hist\fname"), nullptr);
}

TEST(ObsExport, PrometheusGolden)
{
    const std::string expected =
        "# TYPE vaq_cache_matrix_hits counter\n"
        "vaq_cache_matrix_hits 7\n"
        "# TYPE vaq_mapper_portfolio_winner counter\n"
        "vaq_mapper_portfolio_winner{policy=\"vqm\","
        "config=\"baseline\"} 3\n"
        "# TYPE vaq_batch_queue_depth gauge\n"
        "vaq_batch_queue_depth 2.5\n"
        "# TYPE vaq_mapper_route_seconds histogram\n"
        "vaq_mapper_route_seconds_bucket{le=\"0.5\"} 3\n"
        "vaq_mapper_route_seconds_bucket{le=\"1\"} 4\n"
        "vaq_mapper_route_seconds_bucket{le=\"+Inf\"} 4\n"
        "vaq_mapper_route_seconds_sum 2\n"
        "vaq_mapper_route_seconds_count 4\n";
    EXPECT_EQ(exportPrometheus(goldenSnapshot()),
              expected);
}

TEST(ObsExport, CsvListsEveryInstrument)
{
    const std::string csv =
        exportCsv(goldenSnapshot());
    EXPECT_NE(csv.find("kind,name,field,value"),
              std::string::npos);
    EXPECT_NE(csv.find("counter,cache.matrix.hits,value,7"),
              std::string::npos);
    EXPECT_NE(csv.find("gauge,batch.queue.depth,value,2.5"),
              std::string::npos);
    EXPECT_NE(csv.find("histogram,mapper.route.seconds,count,4"),
              std::string::npos);
    EXPECT_NE(csv.find("histogram,mapper.route.seconds,le=+Inf,0"),
              std::string::npos);
}

TEST(ObsExport, TraceJsonGolden)
{
    std::vector<SpanRecord> spans;
    spans.push_back(
        SpanRecord{"outer", 1, 0, 1, 1000, 5000});
    spans.push_back(
        SpanRecord{"inner", 2, 1, 1, 2000, 3000});
    const std::string expected = R"([
  {"name": "outer", "id": 1, "parent": 0, "thread": 1, "start_ns": 1000, "end_ns": 5000, "seconds": 4e-06},
  {"name": "inner", "id": 2, "parent": 1, "thread": 1, "start_ns": 2000, "end_ns": 3000, "seconds": 1e-06}
]
)";
    EXPECT_EQ(exportTraceJson(spans), expected);
    EXPECT_EQ(exportTraceJson({}), "[]\n");
}

} // namespace
} // namespace vaq::obs

// Series-level metrics: the JSONL/JSON/CSV file sinks of a two-region run
// must reproduce a Fig. 11-style DPA priority time series and a registry
// census that parses back to the in-memory summary.
#include "metrics/recorder.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"

namespace rair {
namespace {

using campaign::JsonValue;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Sink files of MetricsSeries.SinkBytesMatchRecordedGolden's run.
constexpr const char* kGoldenSummaryJson =
    R"golden({"type":"metrics_summary","level":"series","cycles":717,"delivered_packets":662,"delivered_flits":1886,"app_delivered_packets":[97,565,0],"app_delivered_flits":[297,1589,0],"va_grants_native":1915,"va_grants_foreign":122,"va_native_share":0.94010800196367206,"sa_grants_native":5356,"sa_grants_foreign":406,"sa_native_share":0.92953835473793822,"escape_allocations":9,"flits_traversed":5762,"dpa_flips":86,"metrics":[)golden"
    R"golden({"name":"delivered_packets","dims":["app"],"extents":[3],"kind":"counter","cells":[97,565,0]},)golden"
    R"golden({"name":"delivered_flits","dims":["app"],"extents":[3],"kind":"counter","cells":[297,1589,0]},)golden"
    R"golden({"name":"packet_latency","dims":["app"],"extents":[3],"kind":"histogram","cells":[{"count":97,"mean":17.175257731958762,"min":9,"max":31,"p50":24,"p99":24},{"count":565,"mean":16.695575221238936,"min":9,"max":41,"p50":24,"p99":48},{"count":0,"mean":0,"min":0,"max":0,"p50":0,"p99":0}]},)golden"
    R"golden({"name":"va_grants","dims":["router","locality"],"extents":[16,2],"kind":"counter","cells":[17,0,27,0,181,16,175,7,31,0,35,0,254,26,263,18,29,0,37,0,256,20,249,15,18,0,19,0,170,11,154,9]},)golden"
    R"golden({"name":"sa_grants","dims":["router","locality"],"extents":[16,2],"kind":"counter","cells":[41,0,75,0,485,52,463,27,87,0,99,0,658,82,744,58,89,0,129,0,692,76,729,51,58,0,63,0,474,31,470,29]},)golden"
    R"golden({"name":"escape_allocations","dims":["router"],"extents":[16],"kind":"counter","cells":[0,0,1,0,0,0,1,4,0,0,0,2,0,0,0,1]},)golden"
    R"golden({"name":"link_flits","dims":["router","port"],"extents":[16,5],"kind":"counter","cells":[8,0,19,14,0,12,0,40,20,3,202,0,125,210,0,195,0,0,191,104,15,8,49,15,0,22,12,27,36,2,185,172,134,249,0,273,169,0,258,102,14,9,48,18,0,48,14,53,10,4,202,229,152,185,0,239,254,0,173,114,24,21,13,0,0,10,12,24,0,17,231,152,122,0,0,211,175,0,0,113]},)golden"
    R"golden({"name":"dpa_flips","dims":["router"],"extents":[16],"kind":"counter","cells":[0,0,14,12,0,0,10,12,0,0,12,8,0,0,8,10]}]})golden" "\n";
constexpr const char* kGoldenSeriesJsonl =
    R"golden({"type":"interval","cycle":200,"packets":159,"flits":475,"mean_latency":17.628930817610062,"dpa_native_high":[0,0],"link_flits":[487,336,249,357,117]})golden" "\n"
    R"golden({"type":"interval","cycle":400,"packets":207,"flits":555,"mean_latency":16.164251207729468,"dpa_native_high":[0,0],"link_flits":[544,359,169,396,121]})golden" "\n"
    R"golden({"type":"interval","cycle":600,"packets":191,"flits":543,"mean_latency":16.434554973821989,"dpa_native_high":[0,0],"link_flits":[548,347,271,375,145]})golden" "\n"
    R"golden({"type":"interval","cycle":717,"packets":105,"flits":313,"mean_latency":17.247619047619047,"dpa_native_high":[0,0],"link_flits":[312,185,117,251,76]})golden" "\n";
constexpr const char* kGoldenCountersCsv =
    R"golden(router,va_grants.0,va_grants.1,sa_grants.0,sa_grants.1,escape_allocations,link_flits.0,link_flits.1,link_flits.2,link_flits.3,link_flits.4,dpa_flips)golden" "\n"
    R"golden(0,17,0,41,0,0,8,0,19,14,0,0)golden" "\n"
    R"golden(1,27,0,75,0,0,12,0,40,20,3,0)golden" "\n"
    R"golden(2,181,16,485,52,1,202,0,125,210,0,14)golden" "\n"
    R"golden(3,175,7,463,27,0,195,0,0,191,104,12)golden" "\n"
    R"golden(4,31,0,87,0,0,15,8,49,15,0,0)golden" "\n"
    R"golden(5,35,0,99,0,0,22,12,27,36,2,0)golden" "\n"
    R"golden(6,254,26,658,82,1,185,172,134,249,0,10)golden" "\n"
    R"golden(7,263,18,744,58,4,273,169,0,258,102,12)golden" "\n"
    R"golden(8,29,0,89,0,0,14,9,48,18,0,0)golden" "\n"
    R"golden(9,37,0,129,0,0,48,14,53,10,4,0)golden" "\n"
    R"golden(10,256,20,692,76,0,202,229,152,185,0,12)golden" "\n"
    R"golden(11,249,15,729,51,2,239,254,0,173,114,8)golden" "\n"
    R"golden(12,18,0,58,0,0,24,21,13,0,0,0)golden" "\n"
    R"golden(13,19,0,63,0,0,10,12,24,0,17,0)golden" "\n"
    R"golden(14,170,11,474,31,0,231,152,122,0,0,8)golden" "\n"
    R"golden(15,154,9,470,29,1,211,175,0,0,113,10)golden" "\n";

struct SeriesRun {
  ScenarioResult res;
  std::string prefix;
};

/// One Series-level run of the Fig. 8 workload: app 1 loads its half hard
/// while app 0 leaks traffic into it — the setup whose DPA priority trace
/// the paper plots in Fig. 11.
SeriesRun runSeriesCell() {
  SeriesRun out;
  out.prefix = ::testing::TempDir() + "rair_series_test.";
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  SimConfig cfg;
  cfg.warmupCycles = 500;
  cfg.measureCycles = 5'000;
  cfg.drainLimit = 60'000;
  metrics::MetricsOptions mo;
  mo.level = metrics::MetricsLevel::Series;
  mo.sampleInterval = 250;
  mo.outPrefix = out.prefix;
  out.res = runScenario(ScenarioSpec(m, rm)
                            .withConfig(cfg)
                            .withScheme(schemeRaRair())
                            .withApps(scenarios::twoAppInterRegion(
                                0.5, 0.05, 0.30))
                            .withSeed(11)
                            .withMetrics(mo));
  return out;
}

TEST(MetricsSeries, SinksReproduceDpaTraceAndCensus) {
  const SeriesRun run = runSeriesCell();
  ASSERT_TRUE(run.res.metrics.has_value());
  const auto& summary = *run.res.metrics;

  // ---- series.jsonl: the Fig. 11-style trace ---------------------------
  const std::string series = readFile(run.prefix + "series.jsonl");
  std::istringstream lines(series);
  std::string line;
  std::uint64_t sumPackets = 0;
  Cycle prevCycle = 0;
  bool sawNativeHigh = false;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    ++rows;
    EXPECT_EQ(v->find("type")->asString(), "interval");
    const auto cycle = static_cast<Cycle>(v->find("cycle")->asNumber());
    // Samples are taken at the end of each fixed-width interval; the
    // final row may close early at the end of the run.
    EXPECT_GT(cycle, prevCycle);
    prevCycle = cycle;
    sumPackets +=
        static_cast<std::uint64_t>(v->find("packets")->asNumber());
    const auto& dpa = v->find("dpa_native_high")->asArray();
    ASSERT_EQ(dpa.size(), 2u);  // one entry per region
    for (const auto& d : dpa) {
      EXPECT_GE(d.asNumber(), 0.0);
      EXPECT_LE(d.asNumber(), 32.0);  // routers per half of an 8x8 mesh
      if (d.asNumber() > 0.0) sawNativeHigh = true;
    }
    const auto& links = v->find("link_flits")->asArray();
    ASSERT_EQ(links.size(), 5u);  // one entry per port direction
  }
  EXPECT_GE(rows, 20u);  // 5500-cycle horizon / 250-cycle interval
  // Every delivered packet lands in exactly one interval, so the trace
  // sums back to the registry census.
  EXPECT_EQ(sumPackets, summary.deliveredPackets);
  // The contended half must have flipped some routers to native-high at
  // some point (the Fig. 11 phenomenon) -- and the run as a whole
  // recorded DPA transitions.
  EXPECT_TRUE(sawNativeHigh);
  EXPECT_GT(summary.dpaFlips, 0u);

  // ---- summary.json: parses and agrees with the in-memory summary ------
  const auto sj = JsonValue::parse(readFile(run.prefix + "summary.json"));
  ASSERT_TRUE(sj.has_value());
  EXPECT_EQ(sj->find("type")->asString(), "metrics_summary");
  EXPECT_EQ(sj->find("level")->asString(), "series");
  EXPECT_EQ(static_cast<std::uint64_t>(
                sj->find("delivered_packets")->asNumber()),
            summary.deliveredPackets);
  EXPECT_EQ(static_cast<std::uint64_t>(
                sj->find("va_grants_native")->asNumber()),
            summary.vaGrantsNative);
  EXPECT_EQ(static_cast<std::uint64_t>(sj->find("dpa_flips")->asNumber()),
            summary.dpaFlips);
  const auto* mlist = sj->find("metrics");
  ASSERT_NE(mlist, nullptr);
  EXPECT_GE(mlist->asArray().size(), 8u);  // all registered metrics

  // ---- counters.csv: one row per router --------------------------------
  const std::string csv = readFile(run.prefix + "counters.csv");
  std::istringstream csvLines(csv);
  std::size_t csvRows = 0;
  std::string header;
  ASSERT_TRUE(std::getline(csvLines, header));
  EXPECT_EQ(header.rfind("router,", 0), 0u);
  EXPECT_NE(header.find("va_grants"), std::string::npos);
  EXPECT_NE(header.find("dpa_flips"), std::string::npos);
  while (std::getline(csvLines, line))
    if (!line.empty()) ++csvRows;
  EXPECT_EQ(csvRows, 64u);  // 8x8 mesh
}

TEST(MetricsSeries, SummaryLevelWritesNoSeriesSink) {
  const std::string prefix = ::testing::TempDir() + "rair_summary_only.";
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  SimConfig cfg;
  cfg.warmupCycles = 100;
  cfg.measureCycles = 1'000;
  cfg.drainLimit = 30'000;
  metrics::MetricsOptions mo;
  mo.level = metrics::MetricsLevel::Summary;
  mo.outPrefix = prefix;
  const auto res = runScenario(ScenarioSpec(m, rm)
                                   .withConfig(cfg)
                                   .withScheme(schemeRoRr())
                                   .withApps(scenarios::twoAppInterRegion(
                                       0.3, 0.05, 0.1))
                                   .withMetrics(mo));
  ASSERT_TRUE(res.metrics.has_value());
  EXPECT_TRUE(std::ifstream(prefix + "summary.json").good());
  EXPECT_TRUE(std::ifstream(prefix + "counters.csv").good());
  EXPECT_FALSE(std::ifstream(prefix + "series.jsonl").good());
}

/// The sink files of one small fixed Series-level run, byte for byte. The
/// expected contents were recorded from the sink writers before they moved
/// onto campaign::JsonValue; any change to a key, its order or a number's
/// formatting shows up here.
TEST(MetricsSeries, SinkBytesMatchRecordedGolden) {
  const std::string prefix = ::testing::TempDir() + "rair_sink_golden.";
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  SimConfig cfg;
  cfg.warmupCycles = 100;
  cfg.measureCycles = 600;
  cfg.drainLimit = 30'000;
  metrics::MetricsOptions mo;
  mo.level = metrics::MetricsLevel::Series;
  mo.sampleInterval = 200;
  mo.outPrefix = prefix;
  const auto res = runScenario(ScenarioSpec(m, rm)
                                   .withConfig(cfg)
                                   .withScheme(schemeRaRair())
                                   .withApps(scenarios::twoAppInterRegion(
                                       0.5, 0.05, 0.30))
                                   .withSeed(5)
                                   .withMetrics(mo));
  ASSERT_TRUE(res.metrics.has_value());
  EXPECT_EQ(readFile(prefix + "summary.json"), kGoldenSummaryJson);
  EXPECT_EQ(readFile(prefix + "series.jsonl"), kGoldenSeriesJsonl);
  EXPECT_EQ(readFile(prefix + "counters.csv"), kGoldenCountersCsv);
}

}  // namespace
}  // namespace rair

// The dimensional metrics subsystem (src/metrics/): registry indexing,
// level parsing, recorder census vs. the simulator's own counts, and the
// oracle cross-validation that guards the census.
#include "metrics/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/oracle.h"
#include "metrics/metrics.h"
#include "metrics/recorder.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"

namespace rair {
namespace {

using metrics::CounterHandle;
using metrics::Dimension;
using metrics::MetricsLevel;
using metrics::MetricsRegistry;

TEST(MetricsRegistry, FlatIndexIsRowMajor) {
  MetricsRegistry reg;
  const CounterHandle h = reg.addCounter(
      {"grants", {Dimension::Router, Dimension::Locality}, {4, 2}});
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(reg.cells(h), 8u);
  // Row-major: router strides by the locality extent.
  EXPECT_EQ(reg.flatIndex(h, {0, 0}), 0u);
  EXPECT_EQ(reg.flatIndex(h, {0, 1}), 1u);
  EXPECT_EQ(reg.flatIndex(h, {1, 0}), 2u);
  EXPECT_EQ(reg.flatIndex(h, {3, 1}), 7u);
}

TEST(MetricsRegistry, CountersAccumulateAndTotal) {
  MetricsRegistry reg;
  const CounterHandle h =
      reg.addCounter({"delivered", {Dimension::App}, {3}});
  reg.incCounter(h, 0);
  reg.incCounter(h, 1, 10);
  reg.incCounter(h, 2, 100);
  reg.incCounter(h, 1, 5);
  EXPECT_EQ(reg.counterCell(h, 0), 1u);
  EXPECT_EQ(reg.counterCell(h, 1), 15u);
  EXPECT_EQ(reg.counterCell(h, 2), 100u);
  EXPECT_EQ(reg.counterTotal(h), 116u);
  const auto span = reg.counterCells(h);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[1], 15u);
}

TEST(MetricsRegistry, ScalarMetricHasOneCell) {
  MetricsRegistry reg;
  const CounterHandle h = reg.addCounter({"total", {}, {}});
  EXPECT_EQ(reg.cells(h), 1u);
  reg.incCounter(h, 0, 7);
  EXPECT_EQ(reg.counterTotal(h), 7u);
}

TEST(MetricsRegistry, MixedKindsKeepIndependentStorage) {
  MetricsRegistry reg;
  const auto c = reg.addCounter({"c", {Dimension::Port}, {5}});
  const auto hh = reg.addHistogram({"h", {Dimension::App}, {2}});
  reg.incCounter(c, 3);
  reg.histogramCell(hh, 1).record(16.0);
  EXPECT_EQ(reg.counterCell(c, 3), 1u);
  EXPECT_EQ(reg.histogramCell(hh, 1).count(), 1u);
  EXPECT_EQ(reg.histogramCell(hh, 0).count(), 0u);

  int seen = 0;
  reg.forEach([&](const MetricsRegistry::MetricView& v) {
    ++seen;
    if (v.spec->name == "c") {
      EXPECT_EQ(v.counters.size(), 5u);
      EXPECT_TRUE(v.histograms.empty());
    }
    if (v.spec->name == "h") {
      EXPECT_EQ(v.histograms.size(), 2u);
      EXPECT_TRUE(v.counters.empty());
    }
  });
  EXPECT_EQ(seen, 2);
}

TEST(MetricsLevelNames, RoundTrip) {
  for (MetricsLevel level :
       {MetricsLevel::Off, MetricsLevel::Counters, MetricsLevel::Summary,
        MetricsLevel::Series}) {
    const char* name = metrics::metricsLevelName(level);
    const auto back = metrics::metricsLevelFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, level) << name;
  }
  EXPECT_FALSE(metrics::metricsLevelFromName("verbose").has_value());
  EXPECT_FALSE(metrics::metricsLevelFromName("").has_value());
}

ScenarioResult runTwoAppCell(MetricsLevel level) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  SimConfig cfg;
  cfg.warmupCycles = 500;
  cfg.measureCycles = 3'000;
  cfg.drainLimit = 60'000;
  return runScenario(ScenarioSpec(m, rm)
                         .withConfig(cfg)
                         .withScheme(schemeRaRair())
                         .withApps(scenarios::twoAppInterRegion(0.5, 0.05,
                                                               0.2))
                         .withSeed(7)
                         .withMetricsLevel(level));
}

TEST(MetricsRecorder, CensusMatchesSimulatorCounts) {
  const auto res = runTwoAppCell(MetricsLevel::Counters);
  ASSERT_TRUE(res.metrics.has_value());
  const auto& s = *res.metrics;
  EXPECT_EQ(s.level, MetricsLevel::Counters);
  EXPECT_EQ(s.cyclesRun, res.run.cyclesRun);
  // The recorder keeps its own delivery census; it must agree exactly
  // with the simulator's.
  EXPECT_EQ(s.deliveredPackets, res.run.packetsDelivered);
  ASSERT_EQ(s.appDeliveredPackets.size(), 3u);  // 2 apps + overflow slot
  EXPECT_EQ(s.appDeliveredPackets[0] + s.appDeliveredPackets[1] +
                s.appDeliveredPackets[2],
            s.deliveredPackets);
  EXPECT_EQ(s.appDeliveredPackets[2], 0u);  // no flooder in this workload
  // Arbitration totals come from RouterCounters; a drained run moved
  // every delivered flit through at least one switch traversal.
  EXPECT_GE(s.saGrantsNative + s.saGrantsForeign, s.deliveredFlits);
  EXPECT_EQ(s.flitsTraversed, s.saGrantsNative + s.saGrantsForeign);
  EXPECT_GT(s.vaGrantsNative, 0u);
  EXPECT_GT(s.vaGrantsForeign, 0u);  // p=0.5: half of app 0 goes foreign
  EXPECT_GT(s.vaNativeShare(), 0.5);
  EXPECT_GT(s.dpaFlips, 0u);  // RA_RAIR runs DPA hysteresis
}

TEST(MetricsRecorder, OffLevelYieldsNoSummary) {
  const auto res = runTwoAppCell(MetricsLevel::Off);
  EXPECT_FALSE(res.metrics.has_value());
}

TEST(MetricsRecorder, LevelsDoNotPerturbResults) {
  // The recorder is a pure observer: every level must reproduce the
  // uninstrumented run bit-for-bit.
  const auto off = runTwoAppCell(MetricsLevel::Off);
  for (MetricsLevel level : {MetricsLevel::Counters, MetricsLevel::Summary,
                             MetricsLevel::Series}) {
    const auto on = runTwoAppCell(level);
    EXPECT_EQ(on.run.cyclesRun, off.run.cyclesRun);
    EXPECT_EQ(on.run.packetsDelivered, off.run.packetsDelivered);
    ASSERT_EQ(on.appApl.size(), off.appApl.size());
    for (std::size_t a = 0; a < off.appApl.size(); ++a)
      EXPECT_DOUBLE_EQ(on.appApl[a], off.appApl[a]);
    EXPECT_DOUBLE_EQ(on.meanApl, off.meanApl);
  }
}

TEST(MetricsOracle, CrossValidationCatchesCorruptedCounter) {
  // Drive a small simulation with both the oracle and the recorder
  // attached, corrupt one registry cell, and require the cross-check to
  // report the mismatch (this is the mechanism behind
  // rair_fuzz --inject-fault's "counter" fault kind).
  Mesh mesh(4, 4);
  const auto regions = RegionMap::halves(mesh);
  SimConfig cfg;
  cfg.warmupCycles = 0;
  cfg.measureCycles = 1'000;
  cfg.drainLimit = 30'000;
  const SchemeSpec scheme = schemeRoRr();
  cfg.routing = scheme.routing;
  cfg.net.rairPartition = scheme.needsRairPartition();
  auto policy = makePolicy(scheme, {0.2, 0.2});
  Simulator sim(mesh, regions, cfg, *policy, 2);
  for (AppId a = 0; a < 2; ++a) {
    AppTrafficSpec app;
    app.app = a;
    app.injectionRate = 0.2;
    app.intraFraction = 1.0;
    sim.addSource(
        std::make_unique<RegionalizedSource>(mesh, regions, app, 7 + a));
  }

  check::OracleOptions oo;
  oo.period = 16;
  oo.failFast = false;
  check::NetworkOracle oracle(sim.network(), sim.ledger(), oo);
  sim.observers().attach(&oracle);
  metrics::MetricsOptions mo;  // Counters level
  metrics::MetricsRecorder recorder(sim.network(), regions, mo, 2,
                                    cfg.measureCycles);
  sim.observers().attach(&recorder);

  const RunResult run = sim.run();
  ASSERT_GT(run.packetsDelivered, 0u);
  recorder.finalize(run.cyclesRun);

  // Clean cross-check first: the independent censuses agree.
  oracle.crossValidateTotals(run.cyclesRun, recorder.deliveredPackets(),
                             recorder.deliveredFlits());
  EXPECT_TRUE(oracle.report().ok()) << oracle.report().summary();

  // Now corrupt one delivered-packets cell and re-validate.
  recorder.debugCorruptCounter(/*pick=*/1);
  oracle.crossValidateTotals(run.cyclesRun, recorder.deliveredPackets(),
                             recorder.deliveredFlits());
  ASSERT_FALSE(oracle.report().ok());
  EXPECT_NE(oracle.report().violations[0].what.find("census mismatch"),
            std::string::npos);
}

}  // namespace
}  // namespace rair

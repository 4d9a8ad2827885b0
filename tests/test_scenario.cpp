#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenarios/paper_scenarios.h"

namespace rair {
namespace {

SimConfig shortCfg() {
  SimConfig cfg;
  cfg.warmupCycles = 500;
  cfg.measureCycles = 3'000;
  cfg.drainLimit = 60'000;
  return cfg;
}

TEST(Scenario, RunsTwoAppWorkload) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const auto apps = scenarios::twoAppInterRegion(0.5, 0.05, 0.25);
  const auto res = runScenario(ScenarioSpec(m, rm)
                                   .withConfig(shortCfg())
                                   .withScheme(schemeRoRr())
                                   .withApps(apps));
  ASSERT_EQ(res.appApl.size(), 2u);
  EXPECT_GT(res.appApl[0], 0.0);
  EXPECT_GT(res.appApl[1], 0.0);
  EXPECT_GT(res.meanApl, 0.0);
  EXPECT_TRUE(res.run.fullyDrained);
}

TEST(Scenario, ReductionMath) {
  ScenarioResult base, mine;
  base.appApl = {100.0, 50.0};
  base.meanApl = 80.0;
  mine.appApl = {90.0, 55.0};
  mine.meanApl = 72.0;
  EXPECT_NEAR(mine.reductionVs(base, 0), 0.10, 1e-12);
  EXPECT_NEAR(mine.reductionVs(base, 1), -0.10, 1e-12);
  EXPECT_NEAR(mine.meanReductionVs(base), 0.10, 1e-12);
}

TEST(Scenario, ReductionAgainstEmptyBaselineIsZeroNotNan) {
  // A baseline cell that hit a tripwire before measuring anything reports
  // zero APL; reductions against it must degrade to 0, not divide by zero.
  ScenarioResult base, mine;
  base.appApl = {0.0, 50.0};
  base.meanApl = 0.0;
  mine.appApl = {90.0, 55.0};
  mine.meanApl = 72.0;
  EXPECT_EQ(mine.reductionVs(base, 0), 0.0);
  EXPECT_NEAR(mine.reductionVs(base, 1), -0.10, 1e-12);
  EXPECT_EQ(mine.meanReductionVs(base), 0.0);
}

TEST(Scenario, AdversarialOptionAddsApp) {
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  std::vector<AppTrafficSpec> apps(4);
  for (AppId a = 0; a < 4; ++a) {
    apps[static_cast<size_t>(a)].app = a;
    apps[static_cast<size_t>(a)].injectionRate = 0.05;
  }
  const auto res = runScenario(ScenarioSpec(m, rm)
                                   .withConfig(shortCfg())
                                   .withScheme(schemeRoRr())
                                   .withApps(apps)
                                   .withAdversarialRate(0.2));
  ASSERT_EQ(res.appApl.size(), 5u);  // 4 apps + attacker
  EXPECT_GT(res.run.stats.app(4).packetsCreated, 100u);
}

TEST(Scenario, TraceWorkloadCoversEveryRecordedApp) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  const std::vector<TraceRecord> records = {
      {5, 0, 15, 0, MsgClass::Request, 1},
      {9, 3, 12, 3, MsgClass::Request, 5},
      {12, 15, 0, 1, MsgClass::Request, 1},
  };
  SimConfig cfg;
  cfg.warmupCycles = 0;
  cfg.measureCycles = 100;
  const auto res = runScenario(ScenarioSpec(m, rm)
                                   .withConfig(cfg)
                                   .withScheme(schemeRoRank())
                                   .withTrace(records));
  ASSERT_EQ(res.appApl.size(), 4u);  // max(2 regions, 1 + app 3)
  EXPECT_EQ(res.run.packetsDelivered, 3u);
  EXPECT_GT(res.appApl[3], 0.0);
  EXPECT_EQ(res.appApl[2], 0.0);
}

TEST(Scenario, SourceCutoffStopsEverySource) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  SimConfig cfg;
  cfg.warmupCycles = 0;
  cfg.measureCycles = 1'000;
  AssembledScenario as =
      assembleScenario(ScenarioSpec(m, rm)
                           .withConfig(cfg)
                           .withApps(scenarios::twoAppInterRegion(0.5, 0.1,
                                                                  0.1))
                           .withAdversarialRate(0.05)
                           .withSourceCutoff(200));
  EXPECT_FALSE(as.sim->snapshotSupported());
  struct LastCreate final : SimObserver {
    Cycle last = 0;
    void onDelivery(const Packet& p) override {
      last = std::max(last, p.createCycle);
    }
  } probe;
  as.sim->observers().attach(&probe);
  const RunResult r = as.sim->run();
  EXPECT_GT(r.packetsCreated, 50u);
  EXPECT_EQ(r.packetsDelivered, r.packetsCreated);
  EXPECT_LT(probe.last, 200u);
}

TEST(Scenario, TwoAppWorkloadShape) {
  const auto apps = scenarios::twoAppInterRegion(0.3, 0.1, 0.5);
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_DOUBLE_EQ(apps[0].intraFraction, 0.7);
  EXPECT_DOUBLE_EQ(apps[0].interFraction, 0.3);
  EXPECT_EQ(apps[0].interTargetApp, 1);
  EXPECT_DOUBLE_EQ(apps[1].intraFraction, 1.0);
  EXPECT_DOUBLE_EQ(apps[1].injectionRate, 0.5);
}

TEST(Scenario, FourAppWorkloadShapes) {
  const auto a = scenarios::fourAppLowTowardHigh(0.05, 0.4);
  ASSERT_EQ(a.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)].interFraction, 0.3);
    EXPECT_EQ(a[static_cast<size_t>(i)].interTargetApp, 3);
  }
  EXPECT_DOUBLE_EQ(a[3].intraFraction, 1.0);

  const auto b = scenarios::fourAppHighTowardLow(0.05, 0.4);
  for (int i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(b[static_cast<size_t>(i)].intraFraction, 1.0);
  EXPECT_DOUBLE_EQ(b[3].interFraction, 0.3);
  EXPECT_EQ(b[3].interTargetApp, kNoApp);
}

TEST(Scenario, SixAppWorkloadShape) {
  const std::vector<double> rates = {0.02, 0.3, 0.03, 0.04, 0.06, 0.3};
  const auto apps = scenarios::sixAppMixed(PatternKind::Transpose, rates);
  ASSERT_EQ(apps.size(), 6u);
  for (const auto& s : apps) {
    EXPECT_DOUBLE_EQ(s.intraFraction, 0.75);
    EXPECT_DOUBLE_EQ(s.interFraction, 0.20);
    EXPECT_DOUBLE_EQ(s.mcFraction, 0.05);
    EXPECT_EQ(s.interPattern, PatternKind::Transpose);
  }
  const auto fracs = scenarios::sixAppLoadFractions();
  ASSERT_EQ(fracs.size(), 6u);
  // Apps 1 and 5 are the high-load pair (paper's "90%", mapped to
  // kHighLoadFraction on this substrate); the rest are low-to-medium.
  EXPECT_DOUBLE_EQ(fracs[1], scenarios::kHighLoadFraction);
  EXPECT_DOUBLE_EQ(fracs[5], scenarios::kHighLoadFraction);
  EXPECT_LE(fracs[0], 0.3);
}

TEST(Scenario, SixAppScenarioRunsAllSchemes) {
  Mesh m(8, 8);
  const auto rm = RegionMap::sixRegions(m);
  const std::vector<double> rates = {0.02, 0.18, 0.03, 0.04, 0.05, 0.18};
  const auto apps = scenarios::sixAppMixed(PatternKind::UniformRandom, rates);
  for (const auto& scheme :
       {schemeRoRr(), schemeRoRank(), schemeRaDbar(), schemeRaRair()}) {
    const auto res = runScenario(ScenarioSpec(m, rm)
                                     .withConfig(shortCfg())
                                     .withScheme(scheme)
                                     .withApps(apps));
    EXPECT_TRUE(res.run.fullyDrained) << scheme.label;
    for (AppId a = 0; a < 6; ++a)
      EXPECT_GT(res.appApl[static_cast<size_t>(a)], 0.0) << scheme.label;
  }
}

TEST(Scenario, SameSeedSameResult) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const auto apps = scenarios::twoAppInterRegion(0.4, 0.05, 0.2);
  const ScenarioSpec spec = ScenarioSpec(m, rm)
                                .withConfig(shortCfg())
                                .withScheme(schemeRaRair())
                                .withApps(apps);
  const auto r1 = runScenario(spec);
  const auto r2 = runScenario(spec);
  EXPECT_DOUBLE_EQ(r1.appApl[0], r2.appApl[0]);
  EXPECT_DOUBLE_EQ(r1.appApl[1], r2.appApl[1]);
}

}  // namespace
}  // namespace rair

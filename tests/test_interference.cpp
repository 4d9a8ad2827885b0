// Behavioral reproduction checks: the directional claims of the paper's
// evaluation must hold in this implementation (shape, not absolute
// numbers). These use shorter windows than the campaigns; the campaigns
// regenerate the full figures.
#include <gtest/gtest.h>

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"

namespace rair {
namespace {

SimConfig cfg(Cycle measure = 10'000) {
  SimConfig c;
  c.warmupCycles = 2'000;
  c.measureCycles = measure;
  c.drainLimit = 100'000;
  return c;
}


// All cells in this file share the short windows from cfg().
ScenarioResult run(const Mesh& m, const RegionMap& rm,
                   const SchemeSpec& scheme,
                   const std::vector<AppTrafficSpec>& apps,
                   double adversarialRate = 0.0) {
  return runScenario(ScenarioSpec(m, rm)
                         .withConfig(cfg())
                         .withScheme(scheme)
                         .withApps(apps)
                         .withAdversarialRate(adversarialRate));
}

// Fixed loads standing in for "10% / 90% of saturation" (the campaigns
// calibrate properly; see the fig09 campaign in campaign/builtin.cpp).
constexpr double kLowLoad = 0.04;
constexpr double kHighLoad = 0.26;

TEST(Interference, RairProtectsInterRegionTrafficFromHighLoadRegion) {
  // Fig. 9's headline: with most of App 0's (low-load) traffic crossing
  // into App 1's (high-load) region, RAIR cuts App 0's APL substantially
  // while App 1 pays only a small penalty.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const auto apps = scenarios::twoAppInterRegion(0.8, kLowLoad, kHighLoad);

  const auto rr = run(m, rm, schemeRoRr(), apps);
  const auto rair = run(m, rm, schemeRaRair(), apps);

  const double app0Gain = rair.reductionVs(rr, 0);
  const double app1Loss = -rair.reductionVs(rr, 1);
  EXPECT_GT(app0Gain, 0.05) << "RAIR must visibly accelerate App 0";
  EXPECT_LT(app1Loss, 0.10) << "App 1 penalty must stay small";
}

TEST(Interference, MspAtVaAndSaBeatsVaOnly) {
  // Fig. 9: enforcing the priority at both VA and SA is stronger than at
  // VA alone.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const auto apps = scenarios::twoAppInterRegion(1.0, kLowLoad, kHighLoad);

  const auto rr = run(m, rm, schemeRoRr(), apps);
  const auto va = run(m, rm, schemeRairVaOnly(), apps);
  const auto vasa = run(m, rm, schemeRaRair(), apps);

  EXPECT_GT(va.reductionVs(rr, 0), 0.0);
  EXPECT_GE(vasa.reductionVs(rr, 0), va.reductionVs(rr, 0) - 0.02);
  EXPECT_GT(vasa.reductionVs(rr, 0), va.reductionVs(rr, 0) * 0.9);
}

TEST(Interference, StaticPrioritiesEachFailOneScenario) {
  // Fig. 12: ForeignH wins scenario (a) (low-load foreign traffic enters
  // the high-load region), NativeH wins scenario (b) (high-load foreign
  // traffic invades low-load regions). DPA must track the winner in both.
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);

  const auto scenA = scenarios::fourAppLowTowardHigh(kLowLoad, kHighLoad);
  const auto scenB = scenarios::fourAppHighTowardLow(kLowLoad, kHighLoad);

  auto meanLowApps = [](const ScenarioResult& r) {
    return (r.appApl[0] + r.appApl[1] + r.appApl[2]) / 3.0;
  };

  // Scenario (a): the critical packets are Apps 0-2's foreign traffic.
  const auto aForeign = run(m, rm, schemeRairForeignHigh(), scenA);
  const auto aNative = run(m, rm, schemeRairNativeHigh(), scenA);
  const auto aDpa = run(m, rm, schemeRaRair(), scenA);
  EXPECT_LT(meanLowApps(aForeign), meanLowApps(aNative));
  EXPECT_LT(meanLowApps(aDpa), meanLowApps(aNative) * 1.02);

  // Scenario (b): the critical packets are Apps 0-2's native traffic.
  const auto bForeign = run(m, rm, schemeRairForeignHigh(), scenB);
  const auto bNative = run(m, rm, schemeRairNativeHigh(), scenB);
  const auto bDpa = run(m, rm, schemeRaRair(), scenB);
  EXPECT_LT(meanLowApps(bNative), meanLowApps(bForeign));
  EXPECT_LT(meanLowApps(bDpa), meanLowApps(bForeign) * 1.02);
}

TEST(Interference, RairLimitsAdversarialSlowdown) {
  // Fig. 17's shape: under a chip-wide flood, RAIR's slowdown must be
  // clearly smaller than round-robin's.
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  std::vector<AppTrafficSpec> apps(4);
  for (AppId a = 0; a < 4; ++a) {
    apps[static_cast<size_t>(a)].app = a;
    apps[static_cast<size_t>(a)].injectionRate = 0.06;
    apps[static_cast<size_t>(a)].intraFraction = 0.9;
    apps[static_cast<size_t>(a)].interFraction = 0.1;
  }
  // The paper floods at 0.4 flits/cycle/node, ~80% of its network's
  // saturation throughput; our substrate saturates at ~0.36 for chip-wide
  // UR, so the equivalent flood is ~0.3 (the fig17 campaign calibrates
  // exactly).
  constexpr double kAttackRate = 0.30;

  auto meanApps = [](const ScenarioResult& r) {
    return (r.appApl[0] + r.appApl[1] + r.appApl[2] + r.appApl[3]) / 4.0;
  };

  const auto rrBase = run(m, rm, schemeRoRr(), apps);
  const auto rrAtk = run(m, rm, schemeRoRr(), apps, kAttackRate);
  const auto raBase = run(m, rm, schemeRaRair(), apps);
  const auto raAtk = run(m, rm, schemeRaRair(), apps, kAttackRate);

  const double rrSlowdown = meanApps(rrAtk) / meanApps(rrBase);
  const double raSlowdown = meanApps(raAtk) / meanApps(raBase);
  EXPECT_GT(rrSlowdown, 1.05) << "the flood must actually hurt";
  EXPECT_LT(raSlowdown, rrSlowdown)
      << "RAIR must shield native traffic from the flood";
}

TEST(Interference, DbarRoutingComposesWithRair) {
  // Fig. 10: RAIR on DBAR routing must not be worse for App 0 than RAIR
  // on local-adaptive routing (better load balance can only help here),
  // and must still beat plain RO_RR.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const auto apps = scenarios::twoAppInterRegion(1.0, kLowLoad, kHighLoad);

  const auto rrLocal = run(m, rm, schemeRoRr(), apps);
  const auto rairDbar = run(m, rm, schemeRaRair(RoutingKind::Dbar), apps);
  EXPECT_GT(rairDbar.reductionVs(rrLocal, 0), 0.05);
}

}  // namespace
}  // namespace rair

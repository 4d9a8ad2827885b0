#include "scenarios/paper_scenarios.h"

#include <array>
#include <limits>

#include "common/assert.h"

namespace rair::scenarios {

std::vector<AppTrafficSpec> twoAppInterRegion(double p, double app0Rate,
                                              double app1Rate) {
  RAIR_CHECK(p >= 0.0 && p <= 1.0);
  std::vector<AppTrafficSpec> apps(2);
  apps[0].app = 0;
  apps[0].injectionRate = app0Rate;
  apps[0].intraFraction = 1.0 - p;
  apps[0].interFraction = p;
  // Inter-region component goes uniformly into App 1's half.
  apps[0].interTargetApp = 1;

  apps[1].app = 1;
  apps[1].injectionRate = app1Rate;
  apps[1].intraFraction = 1.0;
  return apps;
}

std::vector<AppTrafficSpec> fourAppLowTowardHigh(double lowRate,
                                                 double highRate) {
  std::vector<AppTrafficSpec> apps(4);
  for (AppId a = 0; a < 3; ++a) {
    apps[static_cast<size_t>(a)].app = a;
    apps[static_cast<size_t>(a)].injectionRate = lowRate;
    apps[static_cast<size_t>(a)].intraFraction = 0.7;
    apps[static_cast<size_t>(a)].interFraction = 0.3;
    apps[static_cast<size_t>(a)].interTargetApp = 3;
  }
  apps[3].app = 3;
  apps[3].injectionRate = highRate;
  apps[3].intraFraction = 1.0;
  return apps;
}

std::vector<AppTrafficSpec> fourAppHighTowardLow(double lowRate,
                                                 double highRate) {
  std::vector<AppTrafficSpec> apps(4);
  for (AppId a = 0; a < 3; ++a) {
    apps[static_cast<size_t>(a)].app = a;
    apps[static_cast<size_t>(a)].injectionRate = lowRate;
    apps[static_cast<size_t>(a)].intraFraction = 1.0;
  }
  apps[3].app = 3;
  apps[3].injectionRate = highRate;
  apps[3].intraFraction = 0.7;
  apps[3].interFraction = 0.3;
  // "randomly towards other applications": chip-wide uniform random; the
  // generator redraws so destinations land outside App 3's own region.
  apps[3].interPattern = PatternKind::UniformRandom;
  return apps;
}

std::vector<AppTrafficSpec> sixAppMixed(PatternKind globalPattern,
                                        std::span<const double> rates) {
  RAIR_CHECK(rates.size() == 6);
  std::vector<AppTrafficSpec> apps(6);
  for (AppId a = 0; a < 6; ++a) {
    auto& s = apps[static_cast<size_t>(a)];
    s.app = a;
    s.injectionRate = rates[static_cast<size_t>(a)];
    s.intraFraction = 0.75;
    s.interFraction = 0.20;
    s.mcFraction = 0.05;
    s.interPattern = globalPattern;
  }
  return apps;
}

std::span<const double> sixAppLoadFractions() {
  // Paper Sec. V.E: "App 0, 2, 3 and 4 have low to medium loads (10% to
  // 30% of their corresponding saturation loads), and App 1 and 5 have
  // high load (90%)". The 90% points map to kHighLoadFraction (see the
  // header for why).
  static constexpr std::array<double, 6> kFractions = {
      0.10, kHighLoadFraction, 0.15, 0.20, 0.30, kHighLoadFraction};
  return kFractions;
}

std::vector<double> calibrateLoads(const Mesh& mesh, const RegionMap& regions,
                                   std::vector<AppTrafficSpec> shapes,
                                   std::span<const double> fractions,
                                   const SaturationOptions& opts) {
  RAIR_CHECK(shapes.size() == fractions.size());
  const auto n = shapes.size();
  constexpr double kHighThreshold = 0.5;

  // Solo saturation per app on its own shape.
  std::vector<double> soloSat(n);
  for (std::size_t i = 0; i < n; ++i)
    soloSat[i] = appSaturationRate(mesh, regions, shapes[i], opts);

  std::vector<double> rates(n);
  std::vector<std::size_t> highApps;
  for (std::size_t i = 0; i < n; ++i) {
    if (fractions[i] < kHighThreshold) {
      rates[i] = fractions[i] * soloSat[i];
    } else {
      highApps.push_back(i);
    }
  }
  if (highApps.empty()) return rates;

  // Joint in-context calibration of the high apps: scale them together
  // (u = 1 corresponds to each running at its solo saturation) with the
  // low apps active, and find the knee of the high apps' mean APL. A
  // probe's verdict bound is the mean of the high apps' per-app bounds,
  // the same mean this search compares.
  std::vector<AppId> highIds;
  for (std::size_t i : highApps) highIds.push_back(static_cast<AppId>(i));
  auto aplAtScale = [&](double u, std::optional<double> knee,
                        const std::atomic<bool>* abandon) {
    SimConfig cfg;
    cfg.warmupCycles = opts.warmupCycles;
    cfg.measureCycles = opts.measureCycles;
    cfg.drainLimit = opts.drainLimit;
    std::vector<AppTrafficSpec> apps = shapes;
    for (std::size_t i = 0; i < n; ++i) apps[i].injectionRate = rates[i];
    for (std::size_t i : highApps) apps[i].injectionRate = u * soloSat[i];
    ScenarioSpec spec = ScenarioSpec(mesh, regions)
                            .withConfig(cfg)
                            .withScheme(schemeRoRr())
                            .withApps(std::move(apps));
    if (knee) spec.withKneeVerdict({*knee, highIds, abandon});
    const auto res = runScenario(spec);
    if (!res.run.fullyDrained)
      return std::numeric_limits<double>::infinity();
    double sum = 0;
    for (std::size_t i : highApps)
      sum += res.appApl[i];
    return sum / static_cast<double>(highApps.size());
  };
  SaturationOptions jointOpts = opts;
  jointOpts.maxRate = 1.0;  // u is a scale factor; 1 = solo saturation
  const double uStar =
      findSaturationRate(aplAtScale, usableCores(), jointOpts);
  for (std::size_t i : highApps)
    rates[i] = fractions[i] * uStar * soloSat[i];
  return rates;
}

}  // namespace rair::scenarios

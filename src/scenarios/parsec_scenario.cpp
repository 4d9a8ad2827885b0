#include "scenarios/parsec_scenario.h"

#include <array>
#include <limits>

namespace rair::scenarios {

KneeProbe floodKneeProbe(const Mesh& mesh, const RegionMap& regions,
                         int numApps, const SaturationOptions& opts) {
  return [&mesh, &regions, numApps, opts](double rate,
                                          std::optional<double> knee,
                                          const std::atomic<bool>* abandon) {
    SimConfig cfg;
    cfg.warmupCycles = opts.warmupCycles;
    cfg.measureCycles = opts.measureCycles;
    cfg.drainLimit = opts.drainLimit;
    std::vector<AppTrafficSpec> idle(static_cast<std::size_t>(numApps));
    for (AppId a = 0; a < numApps; ++a)
      idle[static_cast<std::size_t>(a)].app = a;
    ScenarioSpec spec = ScenarioSpec(mesh, regions)
                            .withConfig(cfg)
                            .withScheme(schemeRoRr())
                            .withApps(std::move(idle))
                            .withAdversarialRate(rate)
                            .withWarmCache(opts.warmCacheDir);
    const AppId flood = static_cast<AppId>(numApps);
    if (knee) spec.withKneeVerdict({*knee, {flood}, abandon});
    const ScenarioResult r = runScenario(spec);
    if (!r.run.fullyDrained) return std::numeric_limits<double>::infinity();
    return r.appApl[static_cast<std::size_t>(flood)];
  };
}

std::span<const ParsecBenchmark> fig16Benchmarks() {
  static constexpr std::array<ParsecBenchmark, 4> kApps = {
      ParsecBenchmark::Blackscholes, ParsecBenchmark::Swaptions,
      ParsecBenchmark::Fluidanimate, ParsecBenchmark::Raytrace};
  return kApps;
}

}  // namespace rair::scenarios

#include "scenarios/parsec_scenario.h"

#include <array>
#include <limits>

#include "common/assert.h"

namespace rair::scenarios {

ScenarioResult runParsecScenario(const Mesh& mesh, const RegionMap& regions,
                                 SimConfig cfg, const SchemeSpec& scheme,
                                 std::span<const ParsecBenchmark> benchmarks,
                                 const ParsecScenarioOptions& opts) {
  RAIR_CHECK(static_cast<int>(benchmarks.size()) <= regions.numApps());
  const bool adversarial = opts.adversarialRate > 0.0;
  const int numApps =
      static_cast<int>(benchmarks.size()) + (adversarial ? 1 : 0);

  // Table 1 network organization: one VC set per protocol class.
  cfg.net.numClasses = 2;
  cfg.routing = scheme.routing;
  cfg.net.rairPartition = scheme.needsRairPartition();

  // Oracle intensities for RO_Rank: a request moves ~6 flits end to end.
  std::vector<double> intensities;
  for (const auto b : benchmarks)
    intensities.push_back(parsecProfile(b).requestRate * 6.0);
  if (adversarial) intensities.push_back(opts.adversarialRate);

  const auto policy = makePolicy(scheme, intensities);
  Simulator sim(mesh, regions, cfg, *policy, numApps);
  installRequestReplyHook(sim, mesh, opts.timings,
                          cfg.warmupCycles + cfg.measureCycles,
                          static_cast<AppId>(benchmarks.size()));

  std::uint64_t seed = opts.seed;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    sim.addSource(std::make_unique<ParsecSource>(
        mesh, regions, static_cast<AppId>(i), parsecProfile(benchmarks[i]),
        seed));
    seed += 0x9E3779B9ull;
  }
  if (adversarial) {
    sim.addSource(std::make_unique<AdversarialSource>(
        mesh, static_cast<AppId>(benchmarks.size()), opts.adversarialRate,
        seed));
  }

  ScenarioResult out;
  out.run = sim.run();
  out.meanApl = out.run.stats.overallApl();
  out.appApl.resize(static_cast<size_t>(numApps));
  for (AppId a = 0; a < numApps; ++a)
    out.appApl[static_cast<size_t>(a)] = out.run.stats.appApl(a);
  return out;
}

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

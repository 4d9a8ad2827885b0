// The Fig. 16/17 application scenario: PARSEC-like workloads in mesh
// quadrants with the Table 1 two-class VC organization and request/reply
// cache traffic, optionally under a chip-wide adversarial flood.
#pragma once

#include <span>

#include "sim/saturation.h"
#include "sim/scenario.h"
#include "trace/parsec.h"

namespace rair::scenarios {

struct ParsecScenarioOptions {
  /// Adversarial chip-wide UR flood in flits/cycle/node; 0 = no attack.
  /// The attacker is AppId = apps.size() and is foreign to every region.
  double adversarialRate = 0.0;
  std::uint64_t seed = 1;
  MemoryTimings timings;
};

/// Runs `benchmarks[i]` as application i in region i of `regions`.
/// The network uses Table 1's VC organization (2 protocol classes —
/// requests and replies — with `vcsPerClass` each); every delivered
/// request triggers a 5-flit reply after the L2 or memory service latency.
ScenarioResult runParsecScenario(const Mesh& mesh, const RegionMap& regions,
                                 SimConfig cfg, const SchemeSpec& scheme,
                                 std::span<const ParsecBenchmark> benchmarks,
                                 const ParsecScenarioOptions& opts = {});

/// Knee probe of Fig. 17's flood alone on the chip: `numApps` idle
/// applications plus the chip-wide UR attacker (AppId `numApps`) under
/// RO_RR, on the calibration windows of `opts`. With a knee it stops at
/// the flood's KneeVerdict, as appSaturationRate's probes do, so
/// findSaturationRate(probe, width, opts) gives the serial search's value
/// at every width. `mesh` and `regions` must outlive the probe.
KneeProbe floodKneeProbe(const Mesh& mesh, const RegionMap& regions,
                         int numApps, const SaturationOptions& opts);

/// The paper's representative subset (Fig. 16): blackscholes, swaptions,
/// fluidanimate, raytrace — spanning low to high network intensity.
std::span<const ParsecBenchmark> fig16Benchmarks();

}  // namespace rair::scenarios

// Helpers of the Fig. 16/17 application scenario: PARSEC-like workloads in
// mesh quadrants with request/reply cache traffic, optionally under a
// chip-wide adversarial flood. The scenario itself is a ScenarioSpec with
// parsecApps set (sim/scenario.h).
#pragma once

#include <span>

#include "sim/saturation.h"
#include "sim/scenario.h"

namespace rair::scenarios {

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

// The exact workload setups of the paper's evaluation section, expressed
// as AppTrafficSpec lists. Loads are given in absolute flits/cycle/node;
// the campaigns (campaign/builtin.cpp) resolve the paper's "x% of
// saturation load" via sim/saturation.h and pass the resolved rates here.
#pragma once

#include <span>
#include <vector>

#include "sim/saturation.h"
#include "traffic/generator.h"

namespace rair::scenarios {

/// Load fraction standing in for the paper's "90% of saturation load".
///
/// Saturation here is the knee of the latency-load curve (APL = 4x
/// zero-load, see sim/saturation.h). On this substrate (5-flit VCs, 4-5
/// VCs/class) offered load at 0.90 of that knee is already past the
/// open-loop stability edge: source queues grow without bound and APL
/// diverges with simulation length, which the paper's setup evidently
/// avoided (its Fig. 9 high-load APLs are a stable 1.4-2x zero-load).
/// 0.85 of our knee reproduces exactly that operating point, so all
/// "90%" loads in the paper map to this fraction. Low/medium fractions
/// (10-30%) are far from the knee and are used as printed.
inline constexpr double kHighLoadFraction = 0.85;

/// The paper's "10% of saturation" low-load operating point.
inline constexpr double kLowLoadFraction = 0.10;

/// Fig. 8 (evaluated in Figs. 9 and 10): two applications on the mesh
/// halves. App 0 runs low-load uniform traffic of which fraction `p` is
/// inter-region (uniform over the other half); App 1 is high-load and
/// purely intra-regional, so the only cross-application contention is
/// App 0's inter-region traffic inside App 1's region.
std::vector<AppTrafficSpec> twoAppInterRegion(double p, double app0Rate,
                                              double app1Rate);

/// Fig. 11(a): four quadrant applications; Apps 0-2 low load with 30% of
/// their traffic inter-region and directed *at App 3's region*; App 3
/// high load, all intra-regional.
std::vector<AppTrafficSpec> fourAppLowTowardHigh(double lowRate,
                                                 double highRate);

/// Fig. 11(b): Apps 0-2 low load and purely intra-regional; App 3 high
/// load with 30% of its traffic inter-region, uniformly toward the other
/// applications.
std::vector<AppTrafficSpec> fourAppHighTowardLow(double lowRate,
                                                 double highRate);

/// Fig. 13 (evaluated in Figs. 14 and 15): six applications with
/// differentiated loads; every application generates 75% intra-region
/// uniform random traffic, 20% inter-region global traffic following
/// `globalPattern`, and 5% traffic to/from the four corner memory
/// controllers. `rates` holds the resolved per-app injection rates
/// (paper: apps 1 and 5 at 90% of saturation, the rest at 10-30%).
std::vector<AppTrafficSpec> sixAppMixed(PatternKind globalPattern,
                                        std::span<const double> rates);

/// The paper's load levels for the six-app scenario, as fractions of each
/// app's saturation load: apps 0,2,3,4 low-to-medium, apps 1,5 high.
std::span<const double> sixAppLoadFractions();

/// Resolves "fraction-of-saturation" loads for a multi-application
/// workload (the paper specifies every load this way, Sec. V).
///
/// Every application's saturation is measured on its *own traffic shape*
/// (intra/inter/MC mix — the mix moves the knee). Low-load apps
/// (fraction < 0.5) use their solo saturation directly: they are far from
/// the knee and other apps barely shift it. High-load apps are then
/// calibrated *in context*: with the low apps running at their resolved
/// rates, all high apps are scaled together (preserving their relative
/// solo saturations) until the high apps' mean APL hits the knee — this
/// is the saturation point that matters when several heavy applications
/// share chip resources (MC corners, inter-region channels), where the
/// sum of solo saturations would overload the network.
///
/// @param shapes    one spec per app; injectionRate fields are ignored
/// @param fractions target fraction of saturation per app
/// @return resolved injection rates (flits/cycle/node) per app
std::vector<double> calibrateLoads(const Mesh& mesh, const RegionMap& regions,
                                   std::vector<AppTrafficSpec> shapes,
                                   std::span<const double> fractions,
                                   const SaturationOptions& opts = {});

}  // namespace rair::scenarios

// Empirical saturation-load calibration.
//
// The paper expresses application loads as fractions of the application's
// saturation load ("10% of its saturation load", Sec. V.B). Saturation is
// found the standard way (Dally & Towles): sweep the injection rate and
// locate the knee where average latency blows past a multiple of the
// zero-load latency.
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "sim/scenario.h"

namespace rair {

struct SaturationOptions {
  double kneeFactor = 4.0;   ///< saturated when APL > kneeFactor x zero-load
  double zeroLoadRate = 0.005;  ///< rate used to estimate zero-load APL
  double startRate = 0.02;
  double growth = 1.3;       ///< geometric scan factor
  double maxRate = 1.0;      ///< flits/cycle/node upper bound (link rate)
  int bisectIters = 7;
  /// Short simulation windows: saturation needs the knee location, not
  /// tight confidence intervals.
  Cycle warmupCycles = 2'000;
  Cycle measureCycles = 10'000;
  Cycle drainLimit = 30'000;
  /// Warm-state cache directory for the probe runs (snapshot subsystem).
  /// The scan and bisection probe a deterministic rate sequence, so a
  /// repeated calibration — a re-run campaign, another figure sharing the
  /// calibration — restores every probe's warm-up instead of simulating
  /// it. Empty disables caching.
  std::string warmCacheDir;
};

/// One knee probe: the mean latency at `rate`, or +inf where the network
/// failed to drain. `knee` is absent for the zero-load probe; for every
/// other probe the finder only asks `apl > knee`, so the probe may stop
/// early and return +inf once that is certain (a KneeVerdict). `abandon`
/// is set once the search no longer needs the probe's result; the probe
/// should then stop at its next check and may return anything.
using KneeProbe = std::function<double(
    double rate, std::optional<double> knee, const std::atomic<bool>* abandon)>;

/// Knee finder that runs up to `width` probes at once, one thread each.
/// The geometric scan probes windows of `width` consecutive rates of the
/// `rate *= growth` sequence and takes the first bad one in sequence
/// order; the bisection probes a breadth-first tree of the next d
/// midpoints (2^d - 1 <= width), each computed as `0.5 * (lo + hi)` from
/// the bracket the serial search would hold there. The result is
/// therefore bit-identical to the serial search (width 1) for every width
/// and every latency curve, monotone or not: speculation changes cost,
/// never the result. A probe is abandoned as soon as the verdicts already
/// in put it off the search's path (a bad rate ends the scan window, a
/// midpoint's verdict rules out the other half of its subtree).
double findSaturationRate(const KneeProbe& probe, int width,
                          const SaturationOptions& opts = {});

/// Serial knee finder: the batched finder at width 1. `aplAtRate(rate)`
/// must return the mean latency at the given injection rate, or a huge
/// value / +inf when the network failed to drain; it is called one rate
/// at a time, in search order, on the calling thread.
double findSaturationRate(const std::function<double(double)>& aplAtRate,
                          const SaturationOptions& opts = {});

/// Saturation rate of one application's traffic shape running *alone* on
/// the chip under the round-robin baseline — the reference the paper's
/// "x% of saturation load" figures are defined against. The app's
/// injectionRate field is ignored (it is the swept variable). Probes run
/// usableCores() at a time, each stopped by a KneeVerdict once it is
/// proven saturated; the result does not depend on the core count.
double appSaturationRate(const Mesh& mesh, const RegionMap& regions,
                         AppTrafficSpec app,
                         const SaturationOptions& opts = {},
                         RoutingKind routing = RoutingKind::LocalAdaptive);

}  // namespace rair

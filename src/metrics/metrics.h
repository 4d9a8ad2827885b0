// Shared vocabulary of the metrics subsystem: collection levels, run
// options, and the plain aggregate summary every instrumented run yields.
//
// The types here are deliberately free of simulator dependencies so that
// other layers (campaign records, CLI flag parsing) can consume metrics
// results without linking the recorder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace rair::metrics {

/// How much instrumentation a run collects. Levels are cumulative: each
/// includes everything below it.
enum class MetricsLevel : std::uint8_t {
  Off,       ///< no recorder attached at all
  Counters,  ///< cheap cumulative counters only (the default)
  Summary,   ///< + per-router matrices, latency histograms exported to sinks
  Series,    ///< + interval time series (DPA priority, link utilization, APL)
};

/// Stable lowercase name ("off" / "counters" / "summary" / "series");
/// used by --metrics CLI flags and sink files.
const char* metricsLevelName(MetricsLevel level);

/// Inverse of metricsLevelName; nullopt for unknown names.
std::optional<MetricsLevel> metricsLevelFromName(std::string_view name);

/// Per-run metrics configuration, carried by ScenarioSpec.
struct MetricsOptions {
  MetricsLevel level = MetricsLevel::Counters;
  /// Width of one time-series interval in cycles (Series level). 0 = auto:
  /// 1/50th of the warmup+measurement horizon, at least 100 cycles.
  Cycle sampleInterval = 0;
  /// Path prefix for file sinks ("out/fig11."). Empty disables file
  /// output; the in-memory summary is produced either way.
  std::string outPrefix;

  bool enabled() const { return level != MetricsLevel::Off; }

  static MetricsOptions off() {
    MetricsOptions o;
    o.level = MetricsLevel::Off;
    return o;
  }
};

/// Aggregated counter totals of one instrumented run — the cross-layer
/// currency: written to the summary.json sink, embedded in campaign
/// records at Summary level and above, and cross-validated by the
/// simulation oracle against its own delivery census.
struct MetricsSummary {
  MetricsLevel level = MetricsLevel::Counters;
  Cycle cyclesRun = 0;

  // Arbitration outcomes summed over all routers (RouterCounters totals).
  std::uint64_t vaGrantsNative = 0;
  std::uint64_t vaGrantsForeign = 0;
  std::uint64_t saGrantsNative = 0;
  std::uint64_t saGrantsForeign = 0;
  std::uint64_t escapeAllocations = 0;
  std::uint64_t flitsTraversed = 0;

  /// DPA hysteresis transitions summed over all routers (Fig. 11/13's
  /// priority flips).
  std::uint64_t dpaFlips = 0;

  // Delivery census maintained by the recorder itself (not copied from the
  // simulator), per application and total.
  std::uint64_t deliveredPackets = 0;
  std::uint64_t deliveredFlits = 0;
  std::vector<std::uint64_t> appDeliveredPackets;
  std::vector<std::uint64_t> appDeliveredFlits;

  /// Fraction of VA_out grants won by native traffic (0 when no grants).
  double vaNativeShare() const {
    const std::uint64_t total = vaGrantsNative + vaGrantsForeign;
    return total ? static_cast<double>(vaGrantsNative) /
                       static_cast<double>(total)
                 : 0.0;
  }
  /// Fraction of switch traversals by native flits (0 when none).
  double saNativeShare() const {
    const std::uint64_t total = saGrantsNative + saGrantsForeign;
    return total ? static_cast<double>(saGrantsNative) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

}  // namespace rair::metrics

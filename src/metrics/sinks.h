// Pluggable output sinks of the metrics subsystem.
//
// All sinks are deterministic: they serialize through campaign::JsonValue,
// which keeps object keys in insertion order and formats numbers with
// %.17g, so the same run always produces byte-identical files (the same
// property the campaign store guarantees for its records). Every value a
// sink writes is finite. Three formats cover the consumers we have:
//
//   * JSON summary   — one object per run; totals, shares, histogram tails
//   * JSONL series   — one object per sampling interval (Fig. 11/13-style
//                      DPA priority traces, per-link utilization, APL)
//   * CSV matrix     — one row per router; the per-link utilization and
//                      per-router arbitration matrix figure scripts consume
#pragma once

#include <string>
#include <string_view>

#include "campaign/json.h"
#include "metrics/metrics.h"
#include "metrics/registry.h"

namespace rair::metrics {

/// A JSON array of the numbers in `values` (the sinks' cell lists).
template <typename Range>
campaign::JsonValue numberArray(const Range& values) {
  campaign::JsonValue::Array out;
  for (const auto v : values) out.emplace_back(v);
  return out;
}

/// Writes `contents` to `path`, replacing any existing file. Returns false
/// (and leaves no partial file behind as far as the OS allows) on failure.
bool writeTextFile(const std::string& path, std::string_view contents);

/// The per-run JSON summary sink: the aggregate totals plus one entry per
/// registered metric (counters as cell arrays, histograms as
/// count/mean/min/max/p50/p99 digests).
std::string summaryJson(const MetricsSummary& summary,
                        const MetricsRegistry& registry);

/// The CSV matrix sink: emits every counter metric whose first dimension
/// is Router as columns of a router-indexed table. The first columns are
/// "router" plus one per remaining coordinate combination, named
/// "<metric>[.<coord>...]".
std::string routerCsv(const MetricsRegistry& registry, int numRouters);

}  // namespace rair::metrics

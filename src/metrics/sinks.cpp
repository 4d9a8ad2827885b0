#include "metrics/sinks.h"

#include <cstdio>
#include <vector>

namespace rair::metrics {

const char* metricsLevelName(MetricsLevel level) {
  switch (level) {
    case MetricsLevel::Off: return "off";
    case MetricsLevel::Counters: return "counters";
    case MetricsLevel::Summary: return "summary";
    case MetricsLevel::Series: return "series";
  }
  return "unknown";
}

std::optional<MetricsLevel> metricsLevelFromName(std::string_view name) {
  if (name == "off") return MetricsLevel::Off;
  if (name == "counters") return MetricsLevel::Counters;
  if (name == "summary") return MetricsLevel::Summary;
  if (name == "series") return MetricsLevel::Series;
  return std::nullopt;
}

namespace {

/// One CSV line from cells (no quoting; metric names and coordinates never
/// contain commas).
std::string csvLine(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ',';
    out += cells[i];
  }
  out += '\n';
  return out;
}

}  // namespace

bool writeTextFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t written = std::fwrite(contents.data(), 1,
                                          contents.size(), f);
  const bool ok = written == contents.size() && std::fclose(f) == 0;
  if (!ok && written != contents.size()) std::fclose(f);
  return ok;
}

std::string summaryJson(const MetricsSummary& summary,
                        const MetricsRegistry& registry) {
  using campaign::JsonValue;
  JsonValue::Array metrics;
  registry.forEach([&](const MetricsRegistry::MetricView& v) {
    JsonValue::Array dims;
    for (const Dimension d : v.spec->dims) dims.emplace_back(dimensionName(d));
    JsonValue::Array cells;
    for (const std::uint64_t c : v.counters) cells.emplace_back(c);
    for (const Histogram& h : v.histograms)
      cells.emplace_back(JsonValue::Object{
          {"count", h.count()},
          {"mean", h.mean()},
          {"min", h.min()},
          {"max", h.max()},
          {"p50", h.approxQuantile(0.50)},
          {"p99", h.approxQuantile(0.99)}});
    metrics.emplace_back(JsonValue::Object{
        {"name", v.spec->name},
        {"dims", std::move(dims)},
        {"extents", numberArray(v.spec->extents)},
        {"kind", v.kind == MetricKind::Counter ? "counter" : "histogram"},
        {"cells", std::move(cells)}});
  });

  const JsonValue root(JsonValue::Object{
      {"type", "metrics_summary"},
      {"level", metricsLevelName(summary.level)},
      {"cycles", summary.cyclesRun},
      {"delivered_packets", summary.deliveredPackets},
      {"delivered_flits", summary.deliveredFlits},
      {"app_delivered_packets", numberArray(summary.appDeliveredPackets)},
      {"app_delivered_flits", numberArray(summary.appDeliveredFlits)},
      {"va_grants_native", summary.vaGrantsNative},
      {"va_grants_foreign", summary.vaGrantsForeign},
      {"va_native_share", summary.vaNativeShare()},
      {"sa_grants_native", summary.saGrantsNative},
      {"sa_grants_foreign", summary.saGrantsForeign},
      {"sa_native_share", summary.saNativeShare()},
      {"escape_allocations", summary.escapeAllocations},
      {"flits_traversed", summary.flitsTraversed},
      {"dpa_flips", summary.dpaFlips},
      {"metrics", std::move(metrics)}});
  return root.dump() + "\n";
}

std::string routerCsv(const MetricsRegistry& registry, int numRouters) {
  // Column layout: every counter metric whose leading dimension is Router
  // contributes one column per trailing-coordinate combination, labelled
  // "<metric>" for scalars-per-router or "<metric>.<c0>[.<c1>...]".
  std::vector<std::string> header = {"router"};
  struct Column {
    std::span<const std::uint64_t> cells;
    std::size_t stride;  ///< cells per router
    std::size_t offset;  ///< within the per-router block
  };
  std::vector<Column> columns;

  registry.forEach([&](const MetricsRegistry::MetricView& v) {
    if (v.kind != MetricKind::Counter) return;
    if (v.spec->dims.empty() || v.spec->dims[0] != Dimension::Router) return;
    if (v.spec->extents[0] != numRouters) return;
    std::size_t stride = 1;
    for (std::size_t d = 1; d < v.spec->extents.size(); ++d)
      stride *= static_cast<std::size_t>(v.spec->extents[d]);
    for (std::size_t c = 0; c < stride; ++c) {
      std::string name = v.spec->name;
      // Decode the trailing coordinates of cell `c` for the column label.
      std::size_t rem = c;
      std::vector<std::size_t> coords(v.spec->extents.size() - 1, 0);
      for (std::size_t d = v.spec->extents.size(); d-- > 1;) {
        const auto extent = static_cast<std::size_t>(v.spec->extents[d]);
        coords[d - 1] = rem % extent;
        rem /= extent;
      }
      for (const std::size_t coord : coords)
        name.append(".").append(std::to_string(coord));
      header.push_back(name);
      columns.push_back(Column{v.counters, stride, c});
    }
  });

  std::string out = csvLine(header);
  for (int r = 0; r < numRouters; ++r) {
    std::vector<std::string> row = {std::to_string(r)};
    for (const Column& col : columns)
      row.push_back(std::to_string(
          col.cells[static_cast<std::size_t>(r) * col.stride + col.offset]));
    out += csvLine(row);
  }
  return out;
}

}  // namespace rair::metrics

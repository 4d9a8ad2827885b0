#include "metrics/sinks.h"

#include <cmath>
#include <cstdio>

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

std::string formatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonObject& JsonObject::add(std::string_view key, std::uint64_t v) {
  return addRaw(key, std::to_string(v));
}

JsonObject& JsonObject::add(std::string_view key, double v) {
  return addRaw(key, formatDouble(v));
}

JsonObject& JsonObject::addString(std::string_view key, std::string_view v) {
  return addRaw(key, std::string("\"").append(jsonEscape(v)).append("\""));
}

JsonObject& JsonObject::addRaw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += jsonEscape(key);
  body_ += "\":";
  body_ += json;
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

namespace {

template <typename T, typename Fmt>
std::string jsonArrayImpl(const std::vector<T>& values, Fmt fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += fmt(values[i]);
  }
  out += ']';
  return out;
}

}  // namespace

std::string jsonArray(const std::vector<std::uint64_t>& values) {
  return jsonArrayImpl(values,
                       [](std::uint64_t v) { return std::to_string(v); });
}

std::string jsonArray(const std::vector<int>& values) {
  return jsonArrayImpl(values, [](int v) { return std::to_string(v); });
}

std::string jsonArray(const std::vector<double>& values) {
  return jsonArrayImpl(values, [](double v) { return formatDouble(v); });
}

std::string csvLine(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ',';
    out += cells[i];
  }
  out += '\n';
  return out;
}

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
  JsonObject root;
  root.addString("type", "metrics_summary");
  root.addString("level", metricsLevelName(summary.level));
  root.add("cycles", static_cast<std::uint64_t>(summary.cyclesRun));
  root.add("delivered_packets", summary.deliveredPackets);
  root.add("delivered_flits", summary.deliveredFlits);
  root.addRaw("app_delivered_packets",
              jsonArray(summary.appDeliveredPackets));
  root.addRaw("app_delivered_flits", jsonArray(summary.appDeliveredFlits));
  root.add("va_grants_native", summary.vaGrantsNative);
  root.add("va_grants_foreign", summary.vaGrantsForeign);
  root.add("va_native_share", summary.vaNativeShare());
  root.add("sa_grants_native", summary.saGrantsNative);
  root.add("sa_grants_foreign", summary.saGrantsForeign);
  root.add("sa_native_share", summary.saNativeShare());
  root.add("escape_allocations", summary.escapeAllocations);
  root.add("flits_traversed", summary.flitsTraversed);
  root.add("dpa_flips", summary.dpaFlips);

  std::string metricsArr = "[";
  bool first = true;
  registry.forEach([&](const MetricsRegistry::MetricView& v) {
    if (!first) metricsArr += ',';
    first = false;
    JsonObject m;
    m.addString("name", v.spec->name);
    std::string dims = "[";
    for (std::size_t d = 0; d < v.spec->dims.size(); ++d) {
      if (d) dims += ',';
      dims += "\"";
      dims += dimensionName(v.spec->dims[d]);
      dims += "\"";
    }
    dims += ']';
    m.addRaw("dims", dims);
    m.addRaw("extents", jsonArray(v.spec->extents));
    switch (v.kind) {
      case MetricKind::Counter: {
        m.addString("kind", "counter");
        std::string cells = "[";
        for (std::size_t i = 0; i < v.counters.size(); ++i) {
          if (i) cells += ',';
          cells += std::to_string(v.counters[i]);
        }
        cells += ']';
        m.addRaw("cells", cells);
        break;
      }
      case MetricKind::Gauge: {
        m.addString("kind", "gauge");
        std::string cells = "[";
        for (std::size_t i = 0; i < v.gauges.size(); ++i) {
          if (i) cells += ',';
          cells += formatDouble(v.gauges[i]);
        }
        cells += ']';
        m.addRaw("cells", cells);
        break;
      }
      case MetricKind::Histogram: {
        m.addString("kind", "histogram");
        std::string cells = "[";
        for (std::size_t i = 0; i < v.histograms.size(); ++i) {
          if (i) cells += ',';
          const Histogram& h = v.histograms[i];
          JsonObject digest;
          digest.add("count", h.count());
          digest.add("mean", h.mean());
          digest.add("min", h.min());
          digest.add("max", h.max());
          digest.add("p50", h.approxQuantile(0.50));
          digest.add("p99", h.approxQuantile(0.99));
          cells += digest.str();
        }
        cells += ']';
        m.addRaw("cells", cells);
        break;
      }
    }
    metricsArr += m.str();
  });
  metricsArr += ']';
  root.addRaw("metrics", metricsArr);
  return root.str() + "\n";
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

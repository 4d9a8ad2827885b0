// Dimensional metrics registry: typed counters and histograms keyed by
// declared dimensions (router, port, app, native/foreign locality).
//
// Registration happens once, before the simulation runs: each metric
// declares its dimensions and their extents and receives a dense block of
// cells (row-major over the extents) in kind-segregated flat storage. A
// handle is an index; updating a cell is one bounds-checked array access —
// no hashing, no strings, no allocation — so the per-cycle hot path can
// feed the registry without violating the allocation-free guarantee of the
// warm simulation loop.
//
// Sinks iterate the registered metrics generically via forEach(), which is
// how one registry definition fans out to the JSON summary, the JSONL
// series and the CSV matrix without per-sink schema code.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/assert.h"
#include "metrics/histogram.h"

namespace rair::metrics {

/// Axes a metric can be keyed by. Extents are declared per metric (e.g.
/// Router is sized to the mesh, App to the region map).
enum class Dimension : std::uint8_t {
  Router,    ///< node id in the mesh
  Port,      ///< router port (Local/N/E/S/W)
  App,       ///< application id (== region id for mapped apps)
  Locality,  ///< 0 = native, 1 = foreign
};

/// Stable lowercase dimension name ("router", "port", ...).
const char* dimensionName(Dimension d);

/// Locality dimension indices (extent 2).
inline constexpr int kLocalityNative = 0;
inline constexpr int kLocalityForeign = 1;

enum class MetricKind : std::uint8_t { Counter, Histogram };

/// Declaration of one metric: a name plus parallel dimension/extent lists.
/// An empty dimension list declares a scalar (one cell).
struct MetricSpec {
  std::string name;
  std::vector<Dimension> dims;
  std::vector<int> extents;  ///< same length as dims; each >= 1
};

/// Opaque dense handles; value types, cheap to copy. Default-constructed
/// handles are invalid (RAIR_CHECKed on use).
struct CounterHandle {
  std::uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
};
struct HistogramHandle {
  std::uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
};

class MetricsRegistry {
 public:
  // --- Registration (setup phase; allocates) -----------------------------
  CounterHandle addCounter(MetricSpec spec);
  HistogramHandle addHistogram(MetricSpec spec);

  // --- Cell access (hot path; allocation-free) ---------------------------
  std::uint64_t& counterCell(CounterHandle h, std::size_t flat);
  Histogram& histogramCell(HistogramHandle h, std::size_t flat);

  void incCounter(CounterHandle h, std::size_t flat, std::uint64_t by = 1) {
    counterCell(h, flat) += by;
  }

  /// Row-major flat index from per-dimension coordinates; must supply
  /// exactly one coordinate per declared dimension.
  std::size_t flatIndex(CounterHandle h,
                        std::initializer_list<int> coords) const;

  // --- Aggregation and iteration (sink side) -----------------------------
  /// Number of cells of the counter behind a handle.
  std::size_t cells(CounterHandle h) const {
    return metricOf(MetricKind::Counter, h.id).cells;
  }

  /// Sum over all cells of a counter.
  std::uint64_t counterTotal(CounterHandle h) const;

  /// Read-only span over a counter's cells (row-major).
  std::span<const std::uint64_t> counterCells(CounterHandle h) const;

  /// One registered metric as seen by a sink: the spec plus a read-only
  /// view of its cells (exactly one of the spans is non-empty).
  struct MetricView {
    const MetricSpec* spec = nullptr;
    MetricKind kind = MetricKind::Counter;
    std::span<const std::uint64_t> counters;
    std::span<const Histogram> histograms;
  };

  /// Visits every registered metric in registration order.
  void forEach(const std::function<void(const MetricView&)>& fn) const;

 private:
  struct Metric {
    MetricSpec spec;
    MetricKind kind;
    std::size_t offset = 0;  ///< into the kind's flat storage
    std::size_t cells = 1;
  };

  const Metric& metricOf(MetricKind kind, std::uint32_t id) const;
  Metric& registerMetric(MetricSpec spec, MetricKind kind);

  std::vector<Metric> metrics_;
  // Kind-indexed lookup: handle id -> metrics_ index.
  std::vector<std::uint32_t> counterIds_, histogramIds_;
  std::vector<std::uint64_t> counters_;
  std::vector<Histogram> histograms_;
};

}  // namespace rair::metrics

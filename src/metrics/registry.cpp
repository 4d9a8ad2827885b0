#include "metrics/registry.h"

#include <numeric>
#include <utility>

namespace rair::metrics {

const char* dimensionName(Dimension d) {
  switch (d) {
    case Dimension::Router: return "router";
    case Dimension::Port: return "port";
    case Dimension::App: return "app";
    case Dimension::Locality: return "locality";
  }
  return "unknown";
}

MetricsRegistry::Metric& MetricsRegistry::registerMetric(MetricSpec spec,
                                                         MetricKind kind) {
  RAIR_CHECK_MSG(spec.dims.size() == spec.extents.size(),
                 "metric dims/extents length mismatch");
  for (const auto& m : metrics_)
    RAIR_CHECK_MSG(m.spec.name != spec.name, "duplicate metric name");
  std::size_t cells = 1;
  for (const int e : spec.extents) {
    RAIR_CHECK_MSG(e >= 1, "metric extent must be >= 1");
    cells *= static_cast<std::size_t>(e);
  }
  Metric m;
  m.spec = std::move(spec);
  m.kind = kind;
  m.cells = cells;
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

CounterHandle MetricsRegistry::addCounter(MetricSpec spec) {
  Metric& m = registerMetric(std::move(spec), MetricKind::Counter);
  m.offset = counters_.size();
  counters_.resize(counters_.size() + m.cells, 0);
  counterIds_.push_back(static_cast<std::uint32_t>(metrics_.size() - 1));
  return CounterHandle{static_cast<std::uint32_t>(counterIds_.size() - 1)};
}

HistogramHandle MetricsRegistry::addHistogram(MetricSpec spec) {
  Metric& m = registerMetric(std::move(spec), MetricKind::Histogram);
  m.offset = histograms_.size();
  histograms_.resize(histograms_.size() + m.cells);
  histogramIds_.push_back(static_cast<std::uint32_t>(metrics_.size() - 1));
  return HistogramHandle{static_cast<std::uint32_t>(histogramIds_.size() - 1)};
}

const MetricsRegistry::Metric& MetricsRegistry::metricOf(
    MetricKind kind, std::uint32_t id) const {
  const std::vector<std::uint32_t>& ids =
      kind == MetricKind::Counter ? counterIds_ : histogramIds_;
  RAIR_CHECK_MSG(id < ids.size(), "invalid metric handle");
  return metrics_[ids[id]];
}

std::size_t MetricsRegistry::flatIndex(
    CounterHandle h, std::initializer_list<int> coords) const {
  const Metric& m = metricOf(MetricKind::Counter, h.id);
  RAIR_CHECK_MSG(coords.size() == m.spec.dims.size(),
                 "coordinate count does not match metric dimensions");
  std::size_t flat = 0;
  std::size_t d = 0;
  for (const int c : coords) {
    const int extent = m.spec.extents[d];
    RAIR_CHECK_MSG(c >= 0 && c < extent, "metric coordinate out of range");
    flat = flat * static_cast<std::size_t>(extent) +
           static_cast<std::size_t>(c);
    ++d;
  }
  return flat;
}

std::uint64_t& MetricsRegistry::counterCell(CounterHandle h,
                                            std::size_t flat) {
  const Metric& m = metricOf(MetricKind::Counter, h.id);
  RAIR_DCHECK(flat < m.cells);
  return counters_[m.offset + flat];
}

Histogram& MetricsRegistry::histogramCell(HistogramHandle h,
                                          std::size_t flat) {
  const Metric& m = metricOf(MetricKind::Histogram, h.id);
  RAIR_DCHECK(flat < m.cells);
  return histograms_[m.offset + flat];
}

std::uint64_t MetricsRegistry::counterTotal(CounterHandle h) const {
  const auto span = counterCells(h);
  return std::accumulate(span.begin(), span.end(), std::uint64_t{0});
}

std::span<const std::uint64_t> MetricsRegistry::counterCells(
    CounterHandle h) const {
  const Metric& m = metricOf(MetricKind::Counter, h.id);
  return {counters_.data() + m.offset, m.cells};
}

void MetricsRegistry::forEach(
    const std::function<void(const MetricView&)>& fn) const {
  for (const Metric& m : metrics_) {
    MetricView v;
    v.spec = &m.spec;
    v.kind = m.kind;
    if (m.kind == MetricKind::Counter)
      v.counters = {counters_.data() + m.offset, m.cells};
    else
      v.histograms = {histograms_.data() + m.offset, m.cells};
    fn(v);
  }
}

}  // namespace rair::metrics

#include "metrics/recorder.h"

#include <algorithm>
#include <array>

#include "core/dpa.h"
#include "metrics/sinks.h"

namespace rair::metrics {

namespace {

Cycle resolveInterval(const MetricsOptions& opts, Cycle horizonCycles) {
  if (opts.sampleInterval != 0) return opts.sampleInterval;
  return std::max<Cycle>(100, horizonCycles / 50);
}

/// App-dimension slot of a packet: declared apps map to their id, every
/// other tag (kNoApp, adversarial extras) shares the overflow slot so the
/// registry totals stay an exact census.
int appSlot(AppId app, int numApps) {
  return (app >= 0 && app < numApps) ? app : numApps;
}

}  // namespace

MetricsRecorder::MetricsRecorder(const Network& net, const RegionMap& regions,
                                 const MetricsOptions& opts, int numApps,
                                 Cycle horizonCycles)
    : net_(&net),
      regions_(&regions),
      opts_(opts),
      numApps_(numApps),
      numRegions_(regions.numApps()),
      interval_(resolveInterval(opts, horizonCycles)),
      lastLinkFlits_(kNumPorts, 0),
      nextSample_(interval_),
      series_(interval_) {
  RAIR_CHECK_MSG(opts.level != MetricsLevel::Off,
                 "MetricsRecorder constructed at level off");
  const int numRouters = net.mesh().numNodes();
  const int appExtent = numApps_ + 1;  // + overflow slot
  deliveredPacketsH_ = registry_.addCounter(
      {"delivered_packets", {Dimension::App}, {appExtent}});
  deliveredFlitsH_ = registry_.addCounter(
      {"delivered_flits", {Dimension::App}, {appExtent}});
  packetLatencyH_ = registry_.addHistogram(
      {"packet_latency", {Dimension::App}, {appExtent}});
  vaGrantsH_ = registry_.addCounter(
      {"va_grants", {Dimension::Router, Dimension::Locality},
       {numRouters, 2}});
  saGrantsH_ = registry_.addCounter(
      {"sa_grants", {Dimension::Router, Dimension::Locality},
       {numRouters, 2}});
  escapeAllocationsH_ = registry_.addCounter(
      {"escape_allocations", {Dimension::Router}, {numRouters}});
  linkFlitsH_ = registry_.addCounter(
      {"link_flits", {Dimension::Router, Dimension::Port},
       {numRouters, kNumPorts}});
  dpaFlipsH_ = registry_.addCounter(
      {"dpa_flips", {Dimension::Router}, {numRouters}});
}

void MetricsRecorder::onDelivery(const Packet& p) {
  const auto slot =
      static_cast<std::size_t>(appSlot(p.app, numApps_));
  registry_.incCounter(deliveredPacketsH_, slot);
  registry_.incCounter(deliveredFlitsH_, slot, p.numFlits);
  registry_.histogramCell(packetLatencyH_, slot)
      .record(static_cast<double>(p.totalLatency()));
  if (opts_.level >= MetricsLevel::Series) series_.recordDelivery(p);
}

void MetricsRecorder::onCycleEnd(Cycle now) {
  if (opts_.level < MetricsLevel::Series) return;
  if (now < nextSample_) return;
  takeSample(now);
  nextSample_ += interval_;
}

void MetricsRecorder::takeSample(Cycle now) {
  Sample s;
  s.cycle = now;
  s.dpaNativeHigh.assign(static_cast<std::size_t>(numRegions_), 0);
  s.linkFlits.assign(kNumPorts, 0);
  const int numRouters = net_->mesh().numNodes();
  std::array<std::uint64_t, kNumPorts> cumulative{};
  for (NodeId n = 0; n < numRouters; ++n) {
    const Router& r = net_->router(n);
    const AppId tag = r.appTag();
    if (tag >= 0 && tag < numRegions_) {
      const auto* dpa = dynamic_cast<const DpaState*>(r.policyState());
      if (dpa != nullptr && dpa->nativeHigh())
        ++s.dpaNativeHigh[static_cast<std::size_t>(tag)];
    }
    for (int p = 0; p < kNumPorts; ++p)
      cumulative[static_cast<std::size_t>(p)] +=
          r.counters().portFlits[static_cast<std::size_t>(p)];
  }
  for (int p = 0; p < kNumPorts; ++p) {
    const auto port = static_cast<std::size_t>(p);
    s.linkFlits[port] = cumulative[port] - lastLinkFlits_[port];
    lastLinkFlits_[port] = cumulative[port];
  }
  samples_.push_back(std::move(s));
}

void MetricsRecorder::finalize(Cycle cyclesRun) {
  RAIR_CHECK_MSG(!finalized_, "MetricsRecorder::finalize called twice");
  finalized_ = true;

  if (opts_.level >= MetricsLevel::Series &&
      (samples_.empty() || samples_.back().cycle < cyclesRun))
    takeSample(cyclesRun);  // trailing partial interval

  // Pull the per-router hardware counters into the registry (Summary data,
  // but cheap enough to always materialize — the summary totals read them).
  const int numRouters = net_->mesh().numNodes();
  for (NodeId n = 0; n < numRouters; ++n) {
    const Router& r = net_->router(n);
    const RouterCounters& c = r.counters();
    registry_.counterCell(
        vaGrantsH_,
        registry_.flatIndex(vaGrantsH_, {n, kLocalityNative})) =
        c.vaGrantsNative;
    registry_.counterCell(
        vaGrantsH_,
        registry_.flatIndex(vaGrantsH_, {n, kLocalityForeign})) =
        c.vaGrantsForeign;
    registry_.counterCell(
        saGrantsH_,
        registry_.flatIndex(saGrantsH_, {n, kLocalityNative})) =
        c.saGrantsNative;
    registry_.counterCell(
        saGrantsH_,
        registry_.flatIndex(saGrantsH_, {n, kLocalityForeign})) =
        c.saGrantsForeign;
    registry_.counterCell(escapeAllocationsH_, static_cast<std::size_t>(n)) =
        c.escapeAllocations;
    for (int p = 0; p < kNumPorts; ++p)
      registry_.counterCell(linkFlitsH_,
                            registry_.flatIndex(linkFlitsH_, {n, p})) =
          c.portFlits[static_cast<std::size_t>(p)];
    if (const auto* dpa = dynamic_cast<const DpaState*>(r.policyState()))
      registry_.counterCell(dpaFlipsH_, static_cast<std::size_t>(n)) =
          dpa->flips();
  }

  summary_ = MetricsSummary{};
  summary_.level = opts_.level;
  summary_.cyclesRun = cyclesRun;
  for (NodeId n = 0; n < numRouters; ++n) {
    const RouterCounters& c = net_->router(n).counters();
    summary_.vaGrantsNative += c.vaGrantsNative;
    summary_.vaGrantsForeign += c.vaGrantsForeign;
    summary_.saGrantsNative += c.saGrantsNative;
    summary_.saGrantsForeign += c.saGrantsForeign;
    summary_.escapeAllocations += c.escapeAllocations;
    summary_.flitsTraversed += c.flitsTraversed;
  }
  summary_.dpaFlips = registry_.counterTotal(dpaFlipsH_);
  summary_.deliveredPackets = registry_.counterTotal(deliveredPacketsH_);
  summary_.deliveredFlits = registry_.counterTotal(deliveredFlitsH_);
  const auto pkts = registry_.counterCells(deliveredPacketsH_);
  const auto flits = registry_.counterCells(deliveredFlitsH_);
  summary_.appDeliveredPackets.assign(pkts.begin(), pkts.end());
  summary_.appDeliveredFlits.assign(flits.begin(), flits.end());
}

bool MetricsRecorder::writeSinks() const {
  RAIR_CHECK_MSG(finalized_, "writeSinks before finalize");
  if (opts_.outPrefix.empty() || opts_.level < MetricsLevel::Summary)
    return true;
  bool ok = writeTextFile(opts_.outPrefix + "summary.json",
                          summaryJson(summary_, registry_));
  ok = writeTextFile(opts_.outPrefix + "counters.csv",
                     routerCsv(registry_, net_->mesh().numNodes())) &&
       ok;
  if (opts_.level < MetricsLevel::Series) return ok;

  // JSONL series: one row per sampling interval. Row i merges the
  // TimeSeries window [i*I, (i+1)*I) with the DPA/link sample taken at the
  // end of that interval (the trailing partial interval reuses the final
  // sample).
  const auto& intervals = series_.intervals();
  const std::size_t rows = std::max(intervals.size(), samples_.size());
  std::string out;
  for (std::size_t i = 0; i < rows; ++i) {
    const Sample* s =
        samples_.empty()
            ? nullptr
            : &samples_[std::min(i, samples_.size() - 1)];
    const IntervalStats iv =
        i < intervals.size() ? intervals[i] : IntervalStats{};
    campaign::JsonValue row(campaign::JsonValue::Object{
        {"type", "interval"},
        {"cycle", s != nullptr ? s->cycle : (i + 1) * interval_},
        {"packets", iv.packets},
        {"flits", iv.flits},
        {"mean_latency", iv.meanLatency()}});
    if (s != nullptr) {
      row.set("dpa_native_high", numberArray(s->dpaNativeHigh));
      row.set("link_flits", numberArray(s->linkFlits));
    }
    out += row.dump();
    out += '\n';
  }
  return writeTextFile(opts_.outPrefix + "series.jsonl", out) && ok;
}

std::size_t MetricsRecorder::debugCorruptCounter(std::uint64_t pick) {
  const std::size_t cell =
      static_cast<std::size_t>(pick % registry_.cells(deliveredPacketsH_));
  ++registry_.counterCell(deliveredPacketsH_, cell);
  return cell;
}

}  // namespace rair::metrics

#include "stats/timeseries.h"

#include "common/assert.h"

namespace rair {

TimeSeries::TimeSeries(Cycle intervalCycles) : interval_(intervalCycles) {
  RAIR_CHECK(intervalCycles >= 1);
}

void TimeSeries::recordDelivery(const Packet& p) {
  RAIR_DCHECK(p.ejectCycle != kNeverCycle);
  const auto idx = static_cast<std::size_t>(p.ejectCycle / interval_);
  if (idx >= intervals_.size()) {
    const std::size_t old = intervals_.size();
    intervals_.resize(idx + 1);
    for (std::size_t i = old; i < intervals_.size(); ++i)
      intervals_[i].start = static_cast<Cycle>(i) * interval_;
  }
  auto& iv = intervals_[idx];
  ++iv.packets;
  iv.flits += p.numFlits;
  iv.latencySum += static_cast<double>(p.totalLatency());
}

}  // namespace rair

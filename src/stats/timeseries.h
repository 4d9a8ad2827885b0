// Interval time series: every delivery recorded into fixed-width
// intervals of packets, flits and summed latency. The metrics recorder's
// `series` level writes one line per interval from it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "packet/packet.h"

namespace rair {

/// One aggregated interval.
struct IntervalStats {
  Cycle start = 0;
  std::uint64_t packets = 0;
  std::uint64_t flits = 0;
  double latencySum = 0.0;

  double meanLatency() const {
    return packets ? latencySum / static_cast<double>(packets) : 0.0;
  }
};

class TimeSeries {
 public:
  /// @param intervalCycles width of each aggregation window.
  explicit TimeSeries(Cycle intervalCycles);

  /// Records a delivered packet into the interval of its delivery cycle.
  void recordDelivery(const Packet& p);

  const std::vector<IntervalStats>& intervals() const { return intervals_; }
  Cycle intervalCycles() const { return interval_; }

 private:
  Cycle interval_;
  std::vector<IntervalStats> intervals_;
};

}  // namespace rair

#include "stats/timeseries.h"

#include <gtest/gtest.h>

namespace rair {
namespace {

Packet deliveredAt(Cycle eject, Cycle latency, std::uint16_t flits = 1) {
  Packet p;
  p.numFlits = flits;
  p.createCycle = eject - latency;
  p.injectCycle = p.createCycle;
  p.ejectCycle = eject;
  return p;
}

TEST(TimeSeries, BucketsByDeliveryCycle) {
  TimeSeries ts(100);
  ts.recordDelivery(deliveredAt(50, 10));
  ts.recordDelivery(deliveredAt(99, 20));
  ts.recordDelivery(deliveredAt(100, 30, 5));
  ASSERT_EQ(ts.intervals().size(), 2u);
  EXPECT_EQ(ts.intervals()[0].packets, 2u);
  EXPECT_DOUBLE_EQ(ts.intervals()[0].meanLatency(), 15.0);
  EXPECT_EQ(ts.intervals()[1].packets, 1u);
  EXPECT_EQ(ts.intervals()[1].flits, 5u);
  EXPECT_EQ(ts.intervals()[1].start, 100u);
}

}  // namespace
}  // namespace rair

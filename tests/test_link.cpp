#include "link/link_layer.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rair {
namespace {

TEST(DelayPipe, DeliversAfterLatency) {
  SlotBlock slots(DelayPipe<int>::slotBytes(2, 1));
  DelayPipe<int> p(2, 1, slots, "test pipe");
  p.push(10, 42);
  EXPECT_EQ(p.peek(10), nullptr);
  EXPECT_EQ(p.peek(11), nullptr);
  const int* v = p.peek(12);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 42);
  p.popFront();
  EXPECT_EQ(p.peek(13), nullptr);
}

TEST(DelayPipe, PreservesOrder) {
  // Latency 2 keeps all three one-per-cycle pushes within the pipe's
  // bound of latency + 1 entries while none is drained.
  SlotBlock slots(DelayPipe<int>::slotBytes(2, 1));
  DelayPipe<int> p(2, 1, slots, "test pipe");
  p.push(0, 1);
  p.push(1, 2);
  p.push(2, 3);
  for (const int want : {1, 2, 3}) {
    const int* v = p.peek(5);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, want);
    p.popFront();
  }
  EXPECT_EQ(p.peek(5), nullptr);
}

TEST(DelayPipe, SizeAndEmpty) {
  SlotBlock slots(DelayPipe<int>::slotBytes(1, 1));
  DelayPipe<int> p(1, 1, slots, "test pipe");
  EXPECT_TRUE(p.empty());
  p.push(0, 7);
  EXPECT_EQ(p.size(), 1u);
  ASSERT_NE(p.peek(1), nullptr);
  p.popFront();
  EXPECT_TRUE(p.empty());
}

TEST(DelayPipe, OnePushPerCycleStaysWithinLatencyPlusOne) {
  // Whether the consumer drains before or after the cycle's push, a pipe
  // taking one push per cycle never holds more than latency + 1 entries;
  // pushing before draining reaches exactly that.
  for (const Cycle latency : {Cycle{1}, Cycle{2}, Cycle{3}}) {
    for (const bool drainFirst : {true, false}) {
      SlotBlock slots(DelayPipe<int>::slotBytes(latency, 1));
      DelayPipe<int> p(latency, 1, slots, "test pipe");
      ASSERT_EQ(p.capacity(), latency + 1);
      int pushed = 0;
      int popped = 0;
      std::size_t high = 0;
      auto drain = [&](Cycle now) {
        while (const int* v = p.peek(now)) {
          ASSERT_EQ(*v, popped++);
          p.popFront();
        }
      };
      for (Cycle now = 0; now < 40; ++now) {
        if (drainFirst) drain(now);
        p.push(now, pushed++);
        high = std::max(high, p.size());
        if (!drainFirst) drain(now);
      }
      EXPECT_EQ(high, drainFirst ? latency : latency + 1)
          << "latency " << latency;
      EXPECT_EQ(popped, pushed - static_cast<int>(latency));
    }
  }
}

TEST(IdealLink, FlitAndCreditChannelsAreIndependent) {
  SlotBlock slots(IdealLink::slotBytes(1));
  IdealLink link(1, slots);
  Flit f;
  f.pkt = 9;
  link.sendFlit(0, f, 2);
  link.sendCredit(0, 3);

  const FlitMsg* flit = link.peekFlit(1);
  ASSERT_NE(flit, nullptr);
  EXPECT_EQ(flit->flit.pkt, 9u);
  EXPECT_EQ(flit->vc, 2);
  link.popFlit();

  const CreditMsg* credit = link.peekCredit(1);
  ASSERT_NE(credit, nullptr);
  EXPECT_EQ(credit->vc, 3);
  link.popCredit();
  EXPECT_TRUE(link.idle());
}

TEST(IdealLink, NotVisibleBeforeLatency) {
  SlotBlock slots(IdealLink::slotBytes(1));
  IdealLink link(1, slots);
  Flit f;
  link.sendFlit(5, f, 0);
  EXPECT_EQ(link.peekFlit(5), nullptr);
  EXPECT_NE(link.peekFlit(6), nullptr);
}

}  // namespace
}  // namespace rair

#include "link/link_layer.h"

#include <gtest/gtest.h>

namespace rair {
namespace {

TEST(DelayPipe, DeliversAfterLatency) {
  DelayPipe<int> p(2);
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
  DelayPipe<int> p(1);
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
  DelayPipe<int> p(1);
  EXPECT_TRUE(p.empty());
  p.push(0, 7);
  EXPECT_EQ(p.size(), 1u);
  ASSERT_NE(p.peek(1), nullptr);
  p.popFront();
  EXPECT_TRUE(p.empty());
}

TEST(IdealLink, FlitAndCreditChannelsAreIndependent) {
  IdealLink link(1);
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
  IdealLink link(1);
  Flit f;
  link.sendFlit(5, f, 0);
  EXPECT_EQ(link.peekFlit(5), nullptr);
  EXPECT_NE(link.peekFlit(6), nullptr);
}

}  // namespace
}  // namespace rair

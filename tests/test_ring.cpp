#include "common/ring.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "common/rng.h"
#include "snapshot/buffer.h"
#include "snapshot/codec.h"

namespace rair {
namespace {

TEST(RingQueue, StartsEmptyWithNoCapacity) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);
}

TEST(RingQueue, ReserveRoundsUpToPowerOfTwo) {
  RingQueue<int> q;
  q.reserve(3);
  EXPECT_EQ(q.capacity(), 4u);
  q.reserve(4);
  EXPECT_EQ(q.capacity(), 4u);
  q.reserve(5);
  EXPECT_EQ(q.capacity(), 8u);
  // Shrinking reserves are ignored.
  q.reserve(1);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(RingQueue, FifoOrderAcrossTheIndexMask) {
  // Drive head_ around the full power-of-two array several times with the
  // queue partially full, so every push/pop index crosses the mask wrap.
  RingQueue<int> q;
  q.reserve(4);
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 16; ++round) {
    while (q.size() < 3) q.push_back(pushed++);
    while (!q.empty()) {
      EXPECT_EQ(q.front(), popped);
      q.pop_front();
      ++popped;
    }
  }
  EXPECT_EQ(q.capacity(), 4u);  // never grew
  EXPECT_EQ(pushed, popped);
}

TEST(RingQueue, IndexingMatchesFifoPositionWhenWrapped) {
  RingQueue<int> q;
  q.reserve(4);
  // Advance head_ to 3 so elements 1..3 straddle the wrap boundary.
  for (int i = 0; i < 3; ++i) {
    q.push_back(i);
    q.pop_front();
  }
  for (int i = 0; i < 4; ++i) q.push_back(10 + i);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q[static_cast<std::size_t>(i)], 10 + i);
  EXPECT_EQ(q.front(), 10);
}

TEST(RingQueue, GrowWhileWrappedLinearizesElements) {
  // Fill to capacity with the stored window wrapped around the array end,
  // then push one more: regrow must copy elements out in FIFO order, not
  // raw slot order.
  RingQueue<int> q;
  q.reserve(8);
  for (int i = 0; i < 5; ++i) {
    q.push_back(i);
    q.pop_front();
  }
  for (int i = 0; i < 8; ++i) q.push_back(100 + i);  // head_ = 5, wrapped
  ASSERT_EQ(q.capacity(), 8u);
  q.push_back(108);  // forces regrow to 16 mid-wrap
  EXPECT_EQ(q.capacity(), 16u);
  ASSERT_EQ(q.size(), 9u);
  for (int i = 0; i < 9; ++i)
    EXPECT_EQ(q[static_cast<std::size_t>(i)], 100 + i);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(q.front(), 100 + i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowFromEmptyDefaultsToEight) {
  RingQueue<int> q;
  q.push_back(1);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(RingQueue, ClearKeepsCapacity) {
  RingQueue<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

TEST(RingQueue, MoveOnlyPayloadSurvivesRegrow) {
  RingQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 12; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 12; ++i) {
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), i);
    q.pop_front();
  }
}

// Property test: a long random push/pop/clear/reserve schedule behaves
// exactly like std::deque, across many grow-while-wrapped events.
TEST(RingQueue, RandomScheduleMatchesDeque) {
  Xoshiro256StarStar rng(0xD1CEu);
  for (int trial = 0; trial < 50; ++trial) {
    RingQueue<std::string> q;
    std::deque<std::string> model;
    int next = 0;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 55) {
        const std::string v = std::to_string(next++);
        q.push_back(v);
        model.push_back(v);
      } else if (op < 95) {
        if (!model.empty()) {
          ASSERT_EQ(q.front(), model.front());
          q.pop_front();
          model.pop_front();
        }
      } else if (op < 98) {
        q.reserve(rng.below(64));
      } else {
        q.clear();
        model.clear();
      }
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.empty(), model.empty());
      if (!model.empty()) {
        // Spot-check a random FIFO position, plus both ends.
        const std::size_t i = rng.below(model.size());
        ASSERT_EQ(q[i], model[i]);
        ASSERT_EQ(q.front(), model.front());
        ASSERT_EQ(q[model.size() - 1], model.back());
      }
    }
  }
}

// The capacity invariant the hot paths rely on: a queue that has reached
// its high-water mark never reallocates below it again.
TEST(RingQueue, CapacityIsMonotone) {
  Xoshiro256StarStar rng(0xCAFEu);
  RingQueue<int> q;
  std::size_t maxCap = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.chance(0.6)) {
      q.push_back(step);
    } else if (!q.empty()) {
      q.pop_front();
    }
    ASSERT_GE(q.capacity(), maxCap);
    maxCap = q.capacity();
    // Power-of-two capacity is what makes the mask indexing valid.
    ASSERT_EQ(q.capacity() & (q.capacity() - 1), 0u);
  }
}

// ---- FixedRing: the bounded queues of the network ---------------------

/// A FixedRing<int> of `cap` slots with its own slot block.
struct IntRing {
  explicit IntRing(std::size_t cap)
      : slots(SlotBlock::bytesFor<int>(cap)),
        q(slots.carve<int>(cap), cap, "test ring") {}
  SlotBlock slots;
  FixedRing<int> q;
};

TEST(FixedRing, WrapsAroundFromEveryStartOffset) {
  // For every head position, fill to exact capacity (the last pushes wrap
  // past the end of the slots), check FIFO positions, then drain.
  for (const std::size_t cap : {1u, 2u, 3u, 5u, 7u}) {
    for (std::size_t offset = 0; offset < cap; ++offset) {
      IntRing r(cap);
      for (std::size_t i = 0; i < offset; ++i) {
        r.q.push_back(-1);
        r.q.pop_front();
      }
      for (std::size_t i = 0; i < cap; ++i)
        r.q.push_back(static_cast<int>(i));
      ASSERT_EQ(r.q.size(), cap);
      ASSERT_EQ(r.q.capacity(), cap);
      for (std::size_t i = 0; i < cap; ++i)
        ASSERT_EQ(r.q[i], static_cast<int>(i)) << "cap " << cap << " offset "
                                               << offset;
      for (std::size_t i = 0; i < cap; ++i) {
        ASSERT_EQ(r.q.front(), static_cast<int>(i));
        r.q.pop_front();
      }
      EXPECT_TRUE(r.q.empty());
    }
  }
}

TEST(FixedRing, RandomScheduleWithinCapacityMatchesDeque) {
  Xoshiro256StarStar rng(0xF1EDu);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t cap = 1 + rng.below(9);
    IntRing r(cap);
    std::deque<int> model;
    for (int step = 0; step < 500; ++step) {
      if (model.size() < cap && rng.chance(0.55)) {
        r.q.push_back(step);
        model.push_back(step);
      } else if (!model.empty()) {
        ASSERT_EQ(r.q.front(), model.front());
        r.q.pop_front();
        model.pop_front();
      }
      ASSERT_EQ(r.q.size(), model.size());
      for (std::size_t i = 0; i < model.size(); ++i)
        ASSERT_EQ(r.q[i], model[i]);
    }
  }
}

TEST(FixedRing, SaveRestoreOfAFullWrappedRing) {
  IntRing a(5);
  for (int i = 0; i < 3; ++i) {
    a.q.push_back(-1);
    a.q.pop_front();
  }
  for (int i = 0; i < 5; ++i) a.q.push_back(10 + i);
  const auto saveInt = [](snapshot::Writer& w, int v) { w.i32(v); };
  const auto restoreInt = [](snapshot::Reader& r, int& v) { v = r.i32(); };
  snapshot::Writer w;
  snapshot::saveRing(w, a.q, saveInt);

  IntRing b(5);
  b.q.push_back(99);  // restore replaces whatever was queued
  snapshot::Reader r(w.payload());
  snapshot::restoreRing(r, b.q, restoreInt);
  EXPECT_TRUE(r.atEnd());
  ASSERT_EQ(b.q.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(b.q[i], a.q[i]);
  snapshot::Writer w2;
  snapshot::saveRing(w2, b.q, saveInt);
  EXPECT_TRUE(w2.payload() == w.payload());
}

#if defined(GTEST_HAS_DEATH_TEST)
TEST(FixedRingDeathTest, OverflowFailsNamingTheQueue) {
  IntRing r(3);
  for (int i = 0; i < 3; ++i) r.q.push_back(i);
  EXPECT_DEATH(r.q.push_back(3), "test ring overflow \\(capacity 3\\)");
}

TEST(FixedRingDeathTest, RestoreLongerThanCapacityFails) {
  IntRing a(4);
  for (int i = 0; i < 4; ++i) a.q.push_back(i);
  snapshot::Writer w;
  snapshot::saveRing(w, a.q, [](snapshot::Writer& w2, int v) { w2.i32(v); });
  IntRing b(3);
  snapshot::Reader r(w.payload());
  EXPECT_DEATH(snapshot::restoreRing(
                   r, b.q, [](snapshot::Reader& r2, int& v) { v = r2.i32(); }),
               "saved queue exceeds its capacity");
}
#endif

}  // namespace
}  // namespace rair

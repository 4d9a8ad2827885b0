// Channel primitives shared by every link-layer implementation: the
// fixed-latency delay pipe plus the flit/credit wire messages.
//
// Moved out of router/link.h when the concrete Link became the pluggable
// LinkLayer contract (link/link_layer.h); the pipe semantics are
// unchanged so snapshot bytes and oracle accounting stay identical.
#pragma once

#include <utility>

#include "common/assert.h"
#include "common/ring.h"
#include "common/types.h"
#include "packet/packet.h"

namespace rair {

/// FIFO whose elements become visible `latency` cycles after insertion.
///
/// The producer pushes at most `pushesPerCycle` elements each cycle and
/// the consumer drains every arrived element each cycle, so the pipe
/// never holds more than what `latency + 1` cycles of pushes leave in it.
/// That bound is its fixed capacity; exceeding it means one of the two
/// sides broke the contract, and the push fails hard.
template <typename T>
class DelayPipe {
 public:
  using Entry = std::pair<Cycle, T>;  ///< (arrival cycle, element)

  /// SlotBlock bytes a pipe built with these arguments carves.
  static std::size_t slotBytes(Cycle latency, int pushesPerCycle) {
    return SlotBlock::bytesFor<Entry>(capacityFor(latency, pushesPerCycle));
  }

  /// Carves the pipe's slots from `slots`; `name` labels an overflow.
  DelayPipe(Cycle latency, int pushesPerCycle, SlotBlock& slots,
            const char* name)
      : latency_(latency),
        q_(slots.carve<Entry>(capacityFor(latency, pushesPerCycle)),
           capacityFor(latency, pushesPerCycle), name) {
    RAIR_CHECK(latency >= 1 && pushesPerCycle >= 1);
  }

  /// Enqueue `v` at time `now`; it becomes visible at now + latency.
  void push(Cycle now, const T& v) {
    RAIR_DCHECK(q_.empty() ||
                q_[q_.size() - 1].first <= now + latency_);
    q_.push_back({now + latency_, v});
  }

  /// Zero-copy front access: pointer to the front element if it has
  /// arrived by `now`, else nullptr. Invalidated by popFront()/push().
  const T* peek(Cycle now) const {
    if (q_.empty() || q_.front().first > now) return nullptr;
    return &q_.front().second;
  }

  /// Drops the front element (pair with a successful peek()).
  void popFront() { q_.pop_front(); }

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  std::size_t capacity() const { return q_.capacity(); }

  /// Read-only view of queued element `i` (0 = front) with its arrival
  /// cycle — introspection for the simulation oracle and tests.
  const Entry& entry(std::size_t i) const { return q_[i]; }

  // Snapshot restore: rebuild the queue from saved absolute arrival
  // cycles. pushAbsolute() must be called in saved (front-to-back) order.
  void clearForRestore() { q_.clear(); }
  void pushAbsolute(Cycle arrival, const T& v) {
    RAIR_DCHECK(q_.empty() || q_[q_.size() - 1].first <= arrival);
    q_.push_back({arrival, v});
  }

 private:
  static std::size_t capacityFor(Cycle latency, int pushesPerCycle) {
    return static_cast<std::size_t>(pushesPerCycle) *
           (static_cast<std::size_t>(latency) + 1);
  }

  Cycle latency_;
  FixedRing<Entry> q_;
};

/// A flit in flight, tagged with its downstream virtual channel.
struct FlitMsg {
  Flit flit;
  int vc = 0;
};

/// A credit returning upstream: one buffer slot freed in `vc`.
struct CreditMsg {
  int vc = 0;
};

}  // namespace rair

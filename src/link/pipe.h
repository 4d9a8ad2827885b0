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
/// Backed by a RingQueue pre-sized for the in-simulation worst case: with
/// one push per cycle and consumers draining every arrived element each
/// cycle, occupancy never exceeds latency + 1, so steady state is
/// allocation-free. The ring still grows if a caller outruns that bound.
template <typename T>
class DelayPipe {
 public:
  explicit DelayPipe(Cycle latency = 1) : latency_(latency) {
    RAIR_CHECK(latency >= 1);
    q_.reserve(static_cast<std::size_t>(latency) + 2);
  }

  /// Enqueue `v` at time `now`; it becomes visible at now + latency.
  void push(Cycle now, T v) {
    RAIR_DCHECK(q_.empty() ||
                q_[q_.size() - 1].first <= now + latency_);
    q_.push_back({now + latency_, std::move(v)});
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

  /// Read-only view of queued element `i` (0 = front) with its arrival
  /// cycle — introspection for the simulation oracle and tests.
  const std::pair<Cycle, T>& entry(std::size_t i) const { return q_[i]; }

  // Snapshot restore: rebuild the queue from saved absolute arrival
  // cycles. pushAbsolute() must be called in saved (front-to-back) order.
  void clearForRestore() { q_.clear(); }
  void pushAbsolute(Cycle arrival, T v) {
    RAIR_DCHECK(q_.empty() || q_[q_.size() - 1].first <= arrival);
    q_.push_back({arrival, std::move(v)});
  }

 private:
  Cycle latency_;
  RingQueue<std::pair<Cycle, T>> q_;
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

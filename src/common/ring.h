// FIFO ring buffers for simulation hot paths.
//
// Every queue inside the network has a bound fixed by its configuration:
// a VC buffer holds vcDepth flits, a wire holds what its producer can push
// within one latency, a retx replay buffer holds what the credit loop lets
// through. Those queues are FixedRings: a capacity set once at
// construction, slots carved out of a SlotBlock that their owner (the
// router, the network) allocates in one piece, and a push that fails hard
// instead of growing.
//
// Only the NIC source queues grow: a source may outrun the network for as
// long as it likes, so their length has no bound. They are RingQueues, a
// power-of-two circular array that allocates only when occupancy exceeds
// every previous high-water mark (reached during warm-up), so steady-state
// push/pop touch no allocator either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace rair {

/// One heap block of uninitialised storage, carved front to back into
/// typed slot ranges. Its owner sizes it exactly (summing bytesFor over
/// everything it will carve), so running out is a hard failure. Carved
/// slots hold no objects until a FixedRing push (or the owner) constructs
/// them; moving the block keeps every carved pointer valid.
class SlotBlock {
 public:
  /// Bytes carve<T>(n) takes from the block.
  template <typename T>
  static constexpr std::size_t bytesFor(std::size_t n) {
    static_assert(alignof(T) <= kAlign);
    return (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  SlotBlock() = default;
  explicit SlotBlock(std::size_t bytes)
      : bytes_(std::make_unique_for_overwrite<std::byte[]>(bytes)),
        size_(bytes) {}

  /// The next `n` slots of T, uninitialised.
  template <typename T>
  T* carve(std::size_t n) {
    const std::size_t take = bytesFor<T>(n);
    RAIR_CHECK_MSG(used_ + take <= size_, "slot block exhausted");
    T* slots = reinterpret_cast<T*>(bytes_.get() + used_);
    used_ += take;
    return slots;
  }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);
  std::unique_ptr<std::byte[]> bytes_;
  std::size_t size_ = 0;
  std::size_t used_ = 0;
};

/// FIFO of at most `capacity` elements over slots it does not own (carved
/// from the owner's SlotBlock). Elements are copied in on push and need no
/// destruction, so empty slots are never constructed. A push beyond the
/// capacity is a hard failure naming the queue: every bound is a protocol
/// invariant (credits, one push per cycle), never backpressure.
template <typename T>
class FixedRing {
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  using value_type = T;

  FixedRing() = default;
  /// `name` labels the overflow failure ("input VC buffer", ...).
  FixedRing(T* slots, std::size_t capacity, const char* name)
      : slots_(slots), cap_(static_cast<std::uint32_t>(capacity)),
        name_(name) {
    RAIR_CHECK(capacity >= 1 && capacity <= UINT32_MAX);
  }

  void push_back(const T& v) {
    if (size_ == cap_) [[unlikely]]
      overflow();
    std::construct_at(slots_ + wrap(head_ + size_), v);
    ++size_;
  }

  void pop_front() {
    RAIR_DCHECK(size_ > 0);
    if (++head_ == cap_) head_ = 0;
    --size_;
  }

  T& front() {
    RAIR_DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    RAIR_DCHECK(size_ > 0);
    return slots_[head_];
  }

  /// Element `i` positions behind the front (0 = front).
  T& operator[](std::size_t i) {
    RAIR_DCHECK(i < size_);
    return slots_[wrap(head_ + static_cast<std::uint32_t>(i))];
  }
  const T& operator[](std::size_t i) const {
    RAIR_DCHECK(i < size_);
    return slots_[wrap(head_ + static_cast<std::uint32_t>(i))];
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::uint32_t wrap(std::uint32_t i) const { return i >= cap_ ? i - cap_ : i; }

  [[noreturn]] void overflow() const {
    char msg[128];
    std::snprintf(msg, sizeof msg, "%s overflow (capacity %u)", name_, cap_);
    detail::checkFailed("size() < capacity()", __FILE__, __LINE__, msg);
  }

  T* slots_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  const char* name_ = "";
};

/// Growable FIFO for the one unbounded queue kind, the NIC source queues.
template <typename T>
class RingQueue {
 public:
  using value_type = T;

  RingQueue() = default;

  /// Ensures capacity for at least `n` elements (rounded up to a power of
  /// two).
  void reserve(std::size_t n) {
    if (n > buf_.size()) regrow(roundUpPow2(n));
  }

  void push_back(T v) {
    if (size_ == buf_.size()) regrow(buf_.empty() ? 8 : buf_.size() * 2);
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    RAIR_DCHECK(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  T& front() {
    RAIR_DCHECK(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    RAIR_DCHECK(size_ > 0);
    return buf_[head_];
  }

  /// Element `i` positions behind the front (0 = front).
  T& operator[](std::size_t i) {
    RAIR_DCHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    RAIR_DCHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static std::size_t roundUpPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  void regrow(std::size_t newCap) {
    std::vector<T> next(newCap);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = buf_.size() - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace rair

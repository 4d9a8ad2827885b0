// RetxLink: a CRC/retransmission link layer with deterministic go-back-N
// recovery, the seam that makes transient faults (flit corruption)
// modelable.
//
// Model. The upstream endpoint hands the layer at most one flit per cycle
// (sendFlit); the layer appends it to a bounded replay buffer and its
// replay pump (tickUpstream) places at most one flit per cycle onto the
// forward wire, tagged with a per-link sequence number — in the fault-free
// case the freshly appended flit is pumped in the same cycle, so delivery
// timing is identical to IdealLink. The receiver accepts only the
// uncorrupted in-order flit (seq == expectSeq_); a corrupt or gapped
// arrival is dropped at peek time and stages a NAK. Control (cumulative
// ACKs and go-back NAKs) is piggybacked on the reverse credit wire as
// tagged messages and flushed one per cycle by tickDownstream; the
// upstream side applies it transparently while polling credits. A NAK at
// sequence s makes the sender rewind its pump cursor and replay every
// unacknowledged entry from s — classic go-back-N, duplicates are dropped
// silently downstream. Replay entries retire only on cumulative ACK.
//
// Accounting. A flit occupies exactly one census location at all times:
// the replay entries with seq >= expectSeq_ ARE the link's in-flight
// population (charged upstream credit, not yet in a downstream buffer);
// forward-wire copies are ghosts of those entries and entries below
// expectSeq_ have already been delivered (they sit in a downstream buffer
// and are counted there until the ACK retires them). Corruption never
// loses a credit, so the oracle's credit equations close unchanged.
//
// Determinism. Both wires and all layer state are owned by the enclosing
// link object, and the engine-phase discipline in link_layer.h means each
// wire is mutated by exactly one endpoint in exactly one phase — recovery
// schedules are byte-identical across shard-thread counts.
//
// Hot path. LinkLayer's inline dispatch (end of this file) calls the
// inline bodies below directly — no virtual call per cycle. Sequence
// numbers in the replay buffer are consecutive from the front, so the
// sender and the receiver's replay index derive them from nextSeq_
// instead of loading old entries.
#pragma once

#include <algorithm>
#include <cstdint>

#include "link/link_layer.h"

namespace rair {

/// Retransmission link layer. See file comment; construction-time knobs
/// are the wire latency and the replay-buffer capacity (callers size it
/// as totalVcs * vcDepth + 2 * latency + slack — the credit loop bounds
/// un-ACKed occupancy, so hitting the cap means broken flow control, and
/// the layer treats overflow as a hard failure rather than backpressure).
class RetxLink final : public LinkLayer {
 public:
  RetxLink(Cycle latency, std::size_t replayCapacity);

  int inFlightFlits(int vc) const override;
  int inFlightCredits(int vc) const override;
  void forEachFlit(
      const std::function<void(const FlitMsg&)>& fn) const override;
  int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                 const std::function<void(int)>& refundCredit) override;
  void corruptNext(int count) override;
  void setReceiverDown(bool down) override;
  std::uint64_t corruptedFlits() const override { return corrupted_; }
  std::uint64_t retransmittedFlits() const override { return retransmitted_; }
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::Reader& r) override;

  /// Replay-buffer occupancy (all entries, including delivered-but-unACKed
  /// ones) — test introspection.
  std::size_t replayOccupancy() const { return replay_.size(); }
  std::uint64_t expectSeq() const { return expectSeq_; }

  // Hot path under LinkLayer's contract names, defined inline below: its
  // dispatch lands here for retransmission links.
  inline void sendFlit(Cycle now, const Flit& f, int vc);
  inline const CreditMsg* peekCredit(Cycle now);
  void popCredit() { rev_.popFront(); }
  inline void tickUpstream(Cycle now);
  inline const FlitMsg* peekFlit(Cycle now);
  inline void popFlit();
  inline void sendCredit(Cycle now, int vc);
  inline void tickDownstream(Cycle now);
  inline bool idle() const;

 private:
  /// One flit on the forward wire: its link sequence number and whether
  /// its CRC will fail at the receiver. The payload itself is NOT copied
  /// onto the wire — a wire entry the receiver can accept (uncorrupted,
  /// seq == expectSeq_) is guaranteed to still have its replay entry
  /// (entries retire only on a cumulative ACK, which the receiver cannot
  /// have sent before accepting seq), so the receiver reads the FlitMsg
  /// straight out of the replay buffer. Phase-safe: the receiver reads
  /// the replay buffer in phase A (beginCycle), and the sender mutates it
  /// only in phase B — appends in SA/ST, and the ACK/NAK control it polls
  /// in phase A is only noted there and applied by applyPendingControl()
  /// before its next append or pump.
  struct WireFlit {
    std::uint64_t seq = 0;
    bool corrupt = false;
  };

  enum class RevKind : std::uint8_t { Credit = 0, Ack = 1, Nak = 2 };

  /// One message on the reverse wire: a flow-control credit or a go-back
  /// NAK (seq is cumulative: the receiver's next expected sequence
  /// number). Credits piggyback a cumulative ACK in `seq` for free, so
  /// standalone Ack messages only flush on cycles where a flit was
  /// accepted but no credit was sent.
  struct RevMsg {
    RevKind kind = RevKind::Credit;
    int vc = 0;
    std::uint64_t seq = 0;
  };

  /// A sent-but-unacknowledged flit retained for replay. A doomed entry
  /// was purged by the fault injector (its packet died in a soft reset):
  /// it keeps its place in the sequence space — pumped, replayed and
  /// ACKed like any other — but is census-invisible and consumed
  /// silently at the receiver (no buffer insert, no credit).
  struct ReplayEntry {
    FlitMsg msg;
    std::uint64_t seq = 0;
    bool doomed = false;
  };

  /// Sequence number of replay_[0] (of the next send when empty).
  std::uint64_t frontSeq() const { return nextSeq_ - replay_.size(); }
  /// True when polled ACK/NAK control awaits applyPendingControl().
  bool controlPending() const { return retireBelow_ != 0 || rewindPending_; }
  void retireAcked(std::uint64_t seq) {
    // Cumulative: everything below seq was delivered. Retirement waits
    // for phase B: the receiver may be reading the replay buffer now.
    retireBelow_ = std::max(retireBelow_, seq);
  }
  void applyCtl(const RevMsg& m);
  /// Retires the replay entries the noted ACKs/NAKs released and applies
  /// a noted go-back rewind. Sender-side, phase B.
  void applyPendingControl();
  /// Places replay_[cursor_] on the forward wire (cursor_ < size).
  inline void pump(Cycle now);
  /// The receiver's filter loop for every arrival the inline fast path
  /// does not accept outright: receiver down, corrupt, gapped, stale or
  /// tombstoned.
  const FlitMsg* peekFlitSlow(Cycle now);

  std::size_t replayCap_;

  // Wires (forward: upstream pushes, downstream pops; reverse: opposite).
  DelayPipe<WireFlit> fwd_;
  DelayPipe<RevMsg> rev_;

  // Sender state.
  RingQueue<ReplayEntry> replay_;
  std::uint64_t nextSeq_ = 0;   ///< sequence for the next sendFlit
  std::size_t cursor_ = 0;      ///< replay index of the next flit to pump
  std::uint64_t wireHigh_ = 0;  ///< 1 + highest seq ever pumped
  int corruptPending_ = 0;      ///< flits still to corrupt at the pump
  CreditMsg creditScratch_;     ///< backing for peekCredit's return
  // Control noted while polling credits (phase A), applied in phase B;
  // both are clear between cycles, so they are never serialized.
  std::uint64_t retireBelow_ = 0;  ///< highest cumulative ACK/NAK noted
  bool rewindPending_ = false;     ///< a NAK was noted

  // Receiver state.
  std::uint64_t expectSeq_ = 0;  ///< next in-order sequence to accept
  bool ackPending_ = false;      ///< delivery since the last ACK flush
  bool nakPending_ = false;      ///< staged go-back request
  std::uint64_t nakSeq_ = 0;     ///< sequence captured when the NAK staged
  bool nakArmed_ = false;        ///< suppress duplicate NAKs for one gap
  bool receiverDown_ = false;    ///< downstream router in soft reset

  // Lifetime counters (surface through FaultStats).
  std::uint64_t corrupted_ = 0;
  std::uint64_t retransmitted_ = 0;
};

// ---- RetxLink hot path ---------------------------------------------------

inline void RetxLink::sendFlit(Cycle, const Flit& f, int vc) {
  if (controlPending()) applyPendingControl();
  // The credit loop bounds un-ACKed occupancy below the capacity the
  // network sized us with; overflow means flow control is broken.
  RAIR_CHECK_MSG(replay_.size() < replayCap_, "retx replay buffer overflow");
  replay_.push_back(ReplayEntry{FlitMsg{f, vc}, nextSeq_++});
}

inline const CreditMsg* RetxLink::peekCredit(Cycle now) {
  // Piggybacked ACK/NAK control is consumed transparently here; the
  // caller only ever sees credits (whose own cumulative ACK is applied
  // before they surface — idempotent across repeated peeks).
  while (const RevMsg* m = rev_.peek(now)) {
    if (m->kind == RevKind::Credit) {
      retireAcked(m->seq);
      creditScratch_.vc = m->vc;
      return &creditScratch_;
    }
    applyCtl(*m);
    rev_.popFront();
  }
  return nullptr;
}

inline void RetxLink::pump(Cycle now) {
  const std::uint64_t seq = frontSeq() + cursor_;
  RAIR_DCHECK(replay_[cursor_].seq == seq);
  const bool corrupt = corruptPending_ > 0;
  if (corrupt) {
    --corruptPending_;
    ++corrupted_;
  }
  if (seq < wireHigh_)
    ++retransmitted_;
  else
    wireHigh_ = seq + 1;
  fwd_.push(now, WireFlit{seq, corrupt});
  ++cursor_;
}

inline void RetxLink::tickUpstream(Cycle now) {
  // Control was already noted by this cycle's credit poll (every
  // upstream endpoint drains peekCredit each cycle); touching the reverse
  // wire here would race the downstream endpoint's same-phase pushes.
  if (controlPending()) applyPendingControl();
  if (cursor_ < replay_.size()) pump(now);
}

inline const FlitMsg* RetxLink::peekFlit(Cycle now) {
  const WireFlit* wf = fwd_.peek(now);
  if (wf == nullptr) return nullptr;
  // Common case: the uncorrupted in-order flit. The wire carries only the
  // tag; the payload is read out of the replay buffer, which must still
  // hold this entry (it retires only on a cumulative ACK the receiver has
  // not sent for seq yet).
  if (!receiverDown_ && !wf->corrupt && wf->seq == expectSeq_) {
    RAIR_DCHECK(frontSeq() <= wf->seq);
    ReplayEntry& e = replay_[static_cast<std::size_t>(wf->seq - frontSeq())];
    RAIR_DCHECK(e.seq == wf->seq);
    if (!e.doomed) return &e.msg;
  }
  return peekFlitSlow(now);
}

inline void RetxLink::popFlit() {
  fwd_.popFront();
  ++expectSeq_;
  ackPending_ = true;
  nakArmed_ = false;
}

inline void RetxLink::sendCredit(Cycle now, int vc) {
  // Every credit piggybacks the cumulative ACK for free, covering any
  // delivery staged earlier this cycle.
  rev_.push(now, RevMsg{RevKind::Credit, vc, expectSeq_});
  ackPending_ = false;
}

inline void RetxLink::tickDownstream(Cycle now) {
  // One control message per cycle; a pending go-back beats the ACK (the
  // ACK stays staged and flushes next cycle). Standalone ACKs only fire
  // on cycles where a flit was accepted after the last credit went out.
  if (nakPending_) {
    rev_.push(now, RevMsg{RevKind::Nak, 0, nakSeq_});
    nakPending_ = false;
  } else if (ackPending_) {
    rev_.push(now, RevMsg{RevKind::Ack, 0, expectSeq_});
    ackPending_ = false;
  }
}

inline bool RetxLink::idle() const {
  return fwd_.empty() && rev_.empty() && replay_.empty() && !ackPending_ &&
         !nakPending_;
}

// ---- LinkLayer dispatch: the closed set of link kinds, inline. --------

template <typename Fn>
decltype(auto) LinkLayer::visit(Fn&& fn) {
  if (kind_ == LinkLayerKind::Ideal) return fn(*static_cast<IdealLink*>(this));
  return fn(*static_cast<RetxLink*>(this));
}

template <typename Fn>
decltype(auto) LinkLayer::visit(Fn&& fn) const {
  if (kind_ == LinkLayerKind::Ideal)
    return fn(*static_cast<const IdealLink*>(this));
  return fn(*static_cast<const RetxLink*>(this));
}

inline void LinkLayer::sendFlit(Cycle now, const Flit& f, int vc) {
  visit([&](auto& link) { link.sendFlit(now, f, vc); });
}
inline const CreditMsg* LinkLayer::peekCredit(Cycle now) {
  return visit([&](auto& link) { return link.peekCredit(now); });
}
inline void LinkLayer::popCredit() {
  visit([](auto& link) { link.popCredit(); });
}
inline void LinkLayer::tickUpstream(Cycle now) {
  visit([&](auto& link) { link.tickUpstream(now); });
}
inline const FlitMsg* LinkLayer::peekFlit(Cycle now) {
  return visit([&](auto& link) { return link.peekFlit(now); });
}
inline void LinkLayer::popFlit() {
  visit([](auto& link) { link.popFlit(); });
}
inline void LinkLayer::sendCredit(Cycle now, int vc) {
  visit([&](auto& link) { link.sendCredit(now, vc); });
}
inline void LinkLayer::tickDownstream(Cycle now) {
  visit([&](auto& link) { link.tickDownstream(now); });
}
inline bool LinkLayer::idle() const {
  return visit([](const auto& link) { return link.idle(); });
}

}  // namespace rair

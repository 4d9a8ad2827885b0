#include "link/retx.h"

#include <algorithm>

#include "snapshot/codec.h"

namespace rair {

RetxLink::RetxLink(Cycle latency, std::size_t replayCapacity)
    : LinkLayer(LinkLayerKind::Retx, latency),
      replayCap_(replayCapacity),
      fwd_(latency),
      rev_(latency) {
  RAIR_CHECK(replayCapacity >= 1);
  replay_.reserve(replayCapacity);
}

// ---- Sender side -------------------------------------------------------

void RetxLink::vSendFlit(Cycle, const Flit& f, int vc) {
  applyPendingControl();
  // The credit loop bounds un-ACKed occupancy below the capacity the
  // network sized us with; overflow means flow control is broken.
  RAIR_CHECK_MSG(replay_.size() < replayCap_, "retx replay buffer overflow");
  replay_.push_back(ReplayEntry{FlitMsg{f, vc}, nextSeq_++});
}

void RetxLink::retireAcked(std::uint64_t seq) {
  // Cumulative: everything below seq was delivered. Retirement waits for
  // phase B: the receiver may be reading the replay buffer right now.
  retireBelow_ = std::max(retireBelow_, seq);
}

void RetxLink::applyCtl(const RevMsg& m) {
  // Go-back-N: a NAK is cumulative too; it also rewinds the pump over the
  // rest.
  RAIR_DCHECK(m.kind == RevKind::Ack || m.kind == RevKind::Nak);
  retireAcked(m.seq);
  if (m.kind == RevKind::Nak) rewindPending_ = true;
}

void RetxLink::applyPendingControl() {
  while (!replay_.empty() && replay_.front().seq < retireBelow_) {
    replay_.pop_front();
    if (!rewindPending_) {
      RAIR_DCHECK(cursor_ > 0);
      --cursor_;
    }
  }
  if (rewindPending_) cursor_ = 0;
  retireBelow_ = 0;
  rewindPending_ = false;
}

void RetxLink::pump(Cycle now) {
  if (cursor_ >= replay_.size()) return;
  const ReplayEntry& e = replay_[cursor_];
  const bool corrupt = corruptPending_ > 0;
  if (corrupt) {
    --corruptPending_;
    ++corrupted_;
  }
  if (e.seq < wireHigh_)
    ++retransmitted_;
  else
    wireHigh_ = e.seq + 1;
  fwd_.push(now, WireFlit{e.seq, corrupt});
  ++cursor_;
}

const CreditMsg* RetxLink::vPeekCredit(Cycle now) {
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

void RetxLink::vPopCredit() { rev_.popFront(); }

void RetxLink::vTickUpstream(Cycle now) {
  // Control was already applied by this cycle's credit poll (every
  // upstream endpoint drains peekCredit each cycle); touching the reverse
  // wire here would race the downstream endpoint's same-phase pushes.
  applyPendingControl();
  pump(now);
}

// ---- Receiver side -----------------------------------------------------

const FlitMsg* RetxLink::vPeekFlit(Cycle now) {
  while (const WireFlit* wf = fwd_.peek(now)) {
    if (receiverDown_) {
      // The downstream router is in soft reset: every arrival fails the
      // handshake. Unlike a normal gap the NAK re-arms on every drop —
      // the gap cannot close while the router is down, and keeping a
      // go-back staged is what guarantees the pump rewinds and the whole
      // window is redelivered once the router recovers.
      if (wf->seq >= expectSeq_) {
        ++corrupted_;
        nakPending_ = true;
        nakSeq_ = expectSeq_;
        nakArmed_ = true;
      }
      fwd_.popFront();
      continue;
    }
    if (!wf->corrupt && wf->seq == expectSeq_) {
      // The wire carries only the tag; the payload is read out of the
      // replay buffer, which must still hold this entry (it retires only
      // on a cumulative ACK the receiver has not sent for seq yet).
      RAIR_DCHECK(!replay_.empty() && replay_.front().seq <= wf->seq);
      ReplayEntry& e =
          replay_[static_cast<std::size_t>(wf->seq - replay_.front().seq)];
      if (e.doomed) {
        // Tombstone from a reconfiguration purge: advance the protocol
        // past it without surfacing a flit or charging a credit.
        fwd_.popFront();
        ++expectSeq_;
        ackPending_ = true;
        nakArmed_ = false;
        continue;
      }
      return &e.msg;
    }
    if (wf->seq >= expectSeq_) {
      // A corrupt or gapped arrival we needed: request a go-back, at
      // most once per gap — except that a corrupt copy of the expected
      // flit itself must always re-NAK or recovery would stall.
      const bool reNak = wf->corrupt && wf->seq == expectSeq_;
      if (!nakArmed_ || reNak) {
        nakPending_ = true;
        nakSeq_ = expectSeq_;
        nakArmed_ = true;
      }
    }
    // else: a stale go-back duplicate, dropped silently.
    fwd_.popFront();
  }
  return nullptr;
}

void RetxLink::vPopFlit() {
  fwd_.popFront();
  ++expectSeq_;
  ackPending_ = true;
  nakArmed_ = false;
}

void RetxLink::vSendCredit(Cycle now, int vc) {
  // Every credit piggybacks the cumulative ACK for free, covering any
  // delivery staged earlier this cycle.
  rev_.push(now, RevMsg{RevKind::Credit, vc, expectSeq_});
  ackPending_ = false;
}

void RetxLink::vTickDownstream(Cycle now) {
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

bool RetxLink::vIdle() const {
  return fwd_.empty() && rev_.empty() && replay_.empty() && !ackPending_ &&
         !nakPending_;
}

// ---- Introspection -----------------------------------------------------

int RetxLink::inFlightFlits(int vc) const {
  // Replay entries the receiver has not accepted yet are the in-flight
  // population; wire copies are ghosts of them, and entries below
  // expectSeq_ already sit in a downstream buffer (counted there).
  int n = 0;
  for (std::size_t i = 0; i < replay_.size(); ++i)
    if (replay_[i].seq >= expectSeq_ && !replay_[i].doomed &&
        replay_[i].msg.vc == vc)
      ++n;
  return n;
}

int RetxLink::inFlightCredits(int vc) const {
  int n = 0;
  for (std::size_t i = 0; i < rev_.size(); ++i) {
    const RevMsg& m = rev_.entry(i).second;
    if (m.kind == RevKind::Credit && m.vc == vc) ++n;
  }
  return n;
}

void RetxLink::forEachFlit(
    const std::function<void(const FlitMsg&)>& fn) const {
  for (std::size_t i = 0; i < replay_.size(); ++i)
    if (replay_[i].seq >= expectSeq_ && !replay_[i].doomed)
      fn(replay_[i].msg);
}

int RetxLink::purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                         const std::function<void(int)>& refundCredit) {
  // Tombstone instead of remove: deleting a replay entry would tear the
  // go-back-N sequence space (the receiver would wait forever on the
  // gap). Only entries the receiver has not accepted yet are eligible —
  // a delivered-but-unACKed entry's payload sits in a downstream buffer
  // and is refunded by that buffer's own purge.
  int removed = 0;
  for (std::size_t i = 0; i < replay_.size(); ++i) {
    ReplayEntry& e = replay_[i];
    if (e.seq < expectSeq_ || e.doomed) continue;
    if (!doomed(e.msg)) continue;
    e.doomed = true;
    refundCredit(e.msg.vc);
    ++removed;
  }
  return removed;
}

void RetxLink::setReceiverDown(bool down) { receiverDown_ = down; }

void RetxLink::corruptNext(int count) {
  RAIR_CHECK(count > 0);
  corruptPending_ += count;
}

// ---- Snapshot ----------------------------------------------------------

namespace {
// v2: per-entry tombstone flag + the receiver-down (soft reset) flag.
constexpr std::uint8_t kRetxSectionVersion = 2;
}  // namespace

void RetxLink::save(snapshot::Writer& w) const {
  RAIR_CHECK_MSG(retireBelow_ == 0 && !rewindPending_,
                 "retx save with link control still pending");
  w.u8(kRetxSectionVersion);
  snapshot::saveDelayPipe(w, fwd_,
                          [](snapshot::Writer& w2, const WireFlit& wf) {
                            w2.u64(wf.seq);
                            w2.boolean(wf.corrupt);
                          });
  snapshot::saveDelayPipe(w, rev_, [](snapshot::Writer& w2, const RevMsg& m) {
    w2.u8(static_cast<std::uint8_t>(m.kind));
    w2.i32(m.vc);
    w2.u64(m.seq);
  });
  snapshot::saveRing(w, replay_,
                     [](snapshot::Writer& w2, const ReplayEntry& e) {
                       snapshot::saveFlitMsg(w2, e.msg);
                       w2.u64(e.seq);
                       w2.boolean(e.doomed);
                     });
  w.u64(nextSeq_);
  w.u64(cursor_);
  w.u64(wireHigh_);
  w.i32(corruptPending_);
  w.u64(expectSeq_);
  w.boolean(ackPending_);
  w.boolean(nakPending_);
  w.u64(nakSeq_);
  w.boolean(nakArmed_);
  w.boolean(receiverDown_);
  w.u64(corrupted_);
  w.u64(retransmitted_);
}

void RetxLink::restore(snapshot::Reader& r) {
  const std::uint8_t version = r.u8();
  RAIR_CHECK_MSG(version == kRetxSectionVersion,
                 "unknown retx link snapshot version");
  snapshot::restoreDelayPipe(r, fwd_, [](snapshot::Reader& r2, WireFlit& wf) {
    wf.seq = r2.u64();
    wf.corrupt = r2.boolean();
  });
  snapshot::restoreDelayPipe(r, rev_, [](snapshot::Reader& r2, RevMsg& m) {
    m.kind = static_cast<RevKind>(r2.u8());
    m.vc = r2.i32();
    m.seq = r2.u64();
  });
  snapshot::restoreRing(r, replay_,
                        [](snapshot::Reader& r2, ReplayEntry& e) {
                          snapshot::restoreFlitMsg(r2, e.msg);
                          e.seq = r2.u64();
                          e.doomed = r2.boolean();
                        });
  nextSeq_ = r.u64();
  cursor_ = static_cast<std::size_t>(r.u64());
  retireBelow_ = 0;
  rewindPending_ = false;
  wireHigh_ = r.u64();
  corruptPending_ = r.i32();
  expectSeq_ = r.u64();
  ackPending_ = r.boolean();
  nakPending_ = r.boolean();
  nakSeq_ = r.u64();
  nakArmed_ = r.boolean();
  receiverDown_ = r.boolean();
  corrupted_ = r.u64();
  retransmitted_ = r.u64();
}

}  // namespace rair

// Differential test of the retransmission link layer's hot path.
//
// RefRetxLink below is a frozen copy of the straightforward go-back-N
// implementation: every replay entry's sequence number is loaded from the
// entry, control is applied and the pump is tried on every upstream tick,
// and every arrival goes through the one receiver loop. RetxLink derives
// sequence numbers from nextSeq_, skips idle ticks and takes an inline
// fast path for the in-order arrival. Both are driven through the same
// random operation sequences — sends under a credit loop, corruption
// bursts, tombstoning purges at the wire front, receiver-down windows and
// the NAK rewinds they cause — and must agree on every returned value,
// every counter and every snapshot byte after every cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <vector>

#include "link/retx.h"
#include "snapshot/buffer.h"
#include "snapshot/codec.h"

namespace rair {
namespace {

class RefRetxLink {
 public:
  RefRetxLink(Cycle latency, std::size_t replayCapacity)
      : replayCap_(replayCapacity), fwd_(latency), rev_(latency) {}

  void sendFlit(Cycle, const Flit& f, int vc) {
    applyPendingControl();
    RAIR_CHECK_MSG(replay_.size() < replayCap_, "ref replay overflow");
    replay_.push_back(ReplayEntry{FlitMsg{f, vc}, nextSeq_++});
  }

  const CreditMsg* peekCredit(Cycle now) {
    while (const RevMsg* m = rev_.peek(now)) {
      if (m->kind == RevKind::Credit) {
        retireAcked(m->seq);
        creditScratch_.vc = m->vc;
        return &creditScratch_;
      }
      retireAcked(m->seq);
      if (m->kind == RevKind::Nak) rewindPending_ = true;
      rev_.popFront();
    }
    return nullptr;
  }

  void popCredit() { rev_.popFront(); }

  void tickUpstream(Cycle now) {
    applyPendingControl();
    pump(now);
  }

  const FlitMsg* peekFlit(Cycle now) {
    while (const WireFlit* wf = fwd_.peek(now)) {
      if (receiverDown_) {
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
        ReplayEntry& e =
            replay_[static_cast<std::size_t>(wf->seq - replay_.front().seq)];
        if (e.doomed) {
          fwd_.popFront();
          ++expectSeq_;
          ackPending_ = true;
          nakArmed_ = false;
          continue;
        }
        return &e.msg;
      }
      if (wf->seq >= expectSeq_) {
        const bool reNak = wf->corrupt && wf->seq == expectSeq_;
        if (!nakArmed_ || reNak) {
          nakPending_ = true;
          nakSeq_ = expectSeq_;
          nakArmed_ = true;
        }
      }
      fwd_.popFront();
    }
    return nullptr;
  }

  void popFlit() {
    fwd_.popFront();
    ++expectSeq_;
    ackPending_ = true;
    nakArmed_ = false;
  }

  void sendCredit(Cycle now, int vc) {
    rev_.push(now, RevMsg{RevKind::Credit, vc, expectSeq_});
    ackPending_ = false;
  }

  void tickDownstream(Cycle now) {
    if (nakPending_) {
      rev_.push(now, RevMsg{RevKind::Nak, 0, nakSeq_});
      nakPending_ = false;
    } else if (ackPending_) {
      rev_.push(now, RevMsg{RevKind::Ack, 0, expectSeq_});
      ackPending_ = false;
    }
  }

  bool idle() const {
    return fwd_.empty() && rev_.empty() && replay_.empty() && !ackPending_ &&
           !nakPending_;
  }

  int inFlightFlits(int vc) const {
    int n = 0;
    for (std::size_t i = 0; i < replay_.size(); ++i)
      if (replay_[i].seq >= expectSeq_ && !replay_[i].doomed &&
          replay_[i].msg.vc == vc)
        ++n;
    return n;
  }

  int inFlightCredits(int vc) const {
    int n = 0;
    for (std::size_t i = 0; i < rev_.size(); ++i) {
      const RevMsg& m = rev_.entry(i).second;
      if (m.kind == RevKind::Credit && m.vc == vc) ++n;
    }
    return n;
  }

  int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                 const std::function<void(int)>& refundCredit) {
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

  void setReceiverDown(bool down) { receiverDown_ = down; }
  void corruptNext(int count) { corruptPending_ += count; }
  std::uint64_t corruptedFlits() const { return corrupted_; }
  std::uint64_t retransmittedFlits() const { return retransmitted_; }
  std::size_t replayOccupancy() const { return replay_.size(); }
  std::uint64_t expectSeq() const { return expectSeq_; }

  void save(snapshot::Writer& w) const {
    w.u8(2);
    snapshot::saveDelayPipe(w, fwd_,
                            [](snapshot::Writer& w2, const WireFlit& wf) {
                              w2.u64(wf.seq);
                              w2.boolean(wf.corrupt);
                            });
    snapshot::saveDelayPipe(w, rev_,
                            [](snapshot::Writer& w2, const RevMsg& m) {
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

 private:
  struct WireFlit {
    std::uint64_t seq = 0;
    bool corrupt = false;
  };
  enum class RevKind : std::uint8_t { Credit = 0, Ack = 1, Nak = 2 };
  struct RevMsg {
    RevKind kind = RevKind::Credit;
    int vc = 0;
    std::uint64_t seq = 0;
  };
  struct ReplayEntry {
    FlitMsg msg;
    std::uint64_t seq = 0;
    bool doomed = false;
  };

  void retireAcked(std::uint64_t seq) {
    retireBelow_ = std::max(retireBelow_, seq);
  }

  void applyPendingControl() {
    while (!replay_.empty() && replay_.front().seq < retireBelow_) {
      replay_.pop_front();
      if (!rewindPending_) --cursor_;
    }
    if (rewindPending_) cursor_ = 0;
    retireBelow_ = 0;
    rewindPending_ = false;
  }

  void pump(Cycle now) {
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

  std::size_t replayCap_;
  DelayPipe<WireFlit> fwd_;
  DelayPipe<RevMsg> rev_;
  RingQueue<ReplayEntry> replay_;
  std::uint64_t nextSeq_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t wireHigh_ = 0;
  int corruptPending_ = 0;
  CreditMsg creditScratch_;
  std::uint64_t retireBelow_ = 0;
  bool rewindPending_ = false;
  std::uint64_t expectSeq_ = 0;
  bool ackPending_ = false;
  bool nakPending_ = false;
  std::uint64_t nakSeq_ = 0;
  bool nakArmed_ = false;
  bool receiverDown_ = false;
  std::uint64_t corrupted_ = 0;
  std::uint64_t retransmitted_ = 0;
};

std::vector<std::uint8_t> bytesOf(const FlitMsg& m) {
  snapshot::Writer w;
  snapshot::saveFlitMsg(w, m);
  return w.payload();
}

/// One endpoint pair's flow-control state, shared by both links under
/// test: the sender's credits per VC and the receiver's buffered flits,
/// which drain (and return credits) at random.
struct Endpoints {
  std::vector<int> credits;
  std::vector<std::deque<Cycle>> buffered;  // per VC: arrival cycles
};

constexpr int kVcs = 3;
constexpr int kDepth = 3;

/// What a lockstep run exercised, summed over runs.
struct Coverage {
  int delivered = 0;
  int tombstones = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t retransmitted = 0;
};

/// Runs `cycles` cycles of random traffic and faults through a RetxLink
/// and the reference in lockstep, in the engine's phase order.
void runLockstep(std::uint64_t seed, Cycle latency, int cycles,
                 Coverage& cov) {
  std::mt19937_64 rng(seed);
  auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  const std::size_t cap = kVcs * kDepth + 2 * latency + 4;
  RetxLink link(latency, cap);
  RefRetxLink ref(latency, cap);
  Endpoints ep{std::vector<int>(kVcs, kDepth),
               std::vector<std::deque<Cycle>>(kVcs)};
  PacketId nextPkt = 1;
  bool down = false;

  for (Cycle now = 0; now < static_cast<Cycle>(cycles); ++now) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " latency "
                                      << latency << " cycle " << now);
    // Phase A, upstream: poll credits (ACK/NAK control is noted here).
    for (;;) {
      const CreditMsg* a = link.peekCredit(now);
      const CreditMsg* b = ref.peekCredit(now);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) break;
      ASSERT_EQ(a->vc, b->vc);
      ++ep.credits[static_cast<std::size_t>(a->vc)];
      link.popCredit();
      ref.popCredit();
    }
    // Phase A, downstream: accept every in-order arrival.
    for (;;) {
      const FlitMsg* a = link.peekFlit(now);
      const FlitMsg* b = ref.peekFlit(now);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) break;
      ASSERT_EQ(bytesOf(*a), bytesOf(*b));
      const int vc = a->vc;
      link.popFlit();
      ref.popFlit();
      auto& buf = ep.buffered[static_cast<std::size_t>(vc)];
      ASSERT_LT(buf.size(), static_cast<std::size_t>(kDepth));
      buf.push_back(now);
      ++cov.delivered;
    }

    // Faults, between phases (the injector runs at cycle boundaries).
    if (chance(0.02)) {
      const int burst = 1 + static_cast<int>(rng() % 3);
      link.corruptNext(burst);
      ref.corruptNext(burst);
    }
    if (chance(down ? 0.08 : 0.01)) {
      down = !down;
      link.setReceiverDown(down);
      ref.setReceiverDown(down);
    }
    if (chance(0.03)) {
      // Tombstone the flit at the wire front: the first replay entry the
      // receiver has not accepted yet.
      PacketId target = 0;
      bool found = false;
      link.forEachFlit([&](const FlitMsg& m) {
        if (!found) target = m.flit.pkt;
        found = true;
      });
      if (found) {
        auto doomed = [&](const FlitMsg& m) { return m.flit.pkt == target; };
        std::vector<int> refundsA, refundsB;
        const int na = link.purgeFlits(
            doomed, [&](int vc) { refundsA.push_back(vc); });
        const int nb = ref.purgeFlits(
            doomed, [&](int vc) { refundsB.push_back(vc); });
        ASSERT_EQ(na, nb);
        ASSERT_EQ(na, 1);
        ASSERT_EQ(refundsA, refundsB);
        ++cov.tombstones;
        for (const int vc : refundsA)
          ++ep.credits[static_cast<std::size_t>(vc)];
      }
    }

    // Phase B, upstream: at most one flit, then the replay pump.
    if (chance(0.7)) {
      const int vc = static_cast<int>(rng() % kVcs);
      if (ep.credits[static_cast<std::size_t>(vc)] > 0) {
        --ep.credits[static_cast<std::size_t>(vc)];
        Flit f;
        f.pkt = nextPkt++;
        f.seq = static_cast<std::uint16_t>(rng() % 5);
        f.createCycle = now;
        link.sendFlit(now, f, vc);
        ref.sendFlit(now, f, vc);
      }
    }
    // Phase B, downstream: drain buffered flits at random, one credit
    // each.
    if (!down) {
      for (int vc = 0; vc < kVcs; ++vc) {
        auto& buf = ep.buffered[static_cast<std::size_t>(vc)];
        if (!buf.empty() && buf.front() < now && chance(0.5)) {
          buf.pop_front();
          link.sendCredit(now, vc);
          ref.sendCredit(now, vc);
        }
      }
    }
    link.tickUpstream(now);
    ref.tickUpstream(now);
    link.tickDownstream(now);
    ref.tickDownstream(now);

    // Everything observable must agree after every cycle.
    ASSERT_EQ(link.idle(), ref.idle());
    ASSERT_EQ(link.corruptedFlits(), ref.corruptedFlits());
    ASSERT_EQ(link.retransmittedFlits(), ref.retransmittedFlits());
    ASSERT_EQ(link.replayOccupancy(), ref.replayOccupancy());
    ASSERT_EQ(link.expectSeq(), ref.expectSeq());
    for (int vc = 0; vc < kVcs; ++vc) {
      ASSERT_EQ(link.inFlightFlits(vc), ref.inFlightFlits(vc));
      ASSERT_EQ(link.inFlightCredits(vc), ref.inFlightCredits(vc));
    }
    snapshot::Writer wa, wb;
    link.save(wa);
    ref.save(wb);
    ASSERT_TRUE(wa.payload() == wb.payload());
  }
  cov.corrupted += link.corruptedFlits();
  cov.retransmitted += link.retransmittedFlits();
}

TEST(RetxDifferential, RandomOpsMatchReferenceEveryCycle) {
  Coverage cov;
  for (const Cycle latency : {Cycle{1}, Cycle{2}, Cycle{3}}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      runLockstep(seed * 1000 + latency, latency, 3'000, cov);
      if (HasFatalFailure()) return;
    }
  }
  // The sequences must actually reach the recovery paths, not just the
  // fault-free fast path.
  EXPECT_GT(cov.delivered, 10'000);
  EXPECT_GT(cov.tombstones, 100);
  EXPECT_GT(cov.corrupted, 1'000u);
  EXPECT_GT(cov.retransmitted, 1'000u);
}

}  // namespace
}  // namespace rair

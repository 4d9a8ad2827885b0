// Pluggable link layer: the contract between router/NIC ports and the
// point-to-point channel beneath them.
//
// A LinkLayer models one directed physical channel (at most one flit
// enters per cycle, arriving `latency` cycles later) plus its reverse
// wire carrying credits back upstream. Two implementations exist:
//
//  - IdealLink (below): the lossless channel the paper assumes — two
//    delay pipes, nothing else. Byte-identical in behavior and snapshot
//    format to the pre-refactor concrete Link.
//  - RetxLink (link/retx.h): a CRC/retransmission layer with per-link
//    sequence numbers, a bounded replay buffer, cumulative ACK/NAK
//    control piggybacked on the credit wire and go-back-N recovery,
//    enabling transient-fault (flit corruption) modeling.
//
// Call-site contract (who calls what, in which engine phase):
//  - The upstream endpoint calls sendFlit/peekCredit/popCredit and, once
//    per cycle after its send phase, tickUpstream (the replay pump).
//  - The downstream endpoint calls peekFlit/popFlit/sendCredit and, once
//    per cycle after its receive+send phases, tickDownstream (the staged
//    ACK/NAK flush).
// Each wire is thereby written by exactly one endpoint in exactly one
// engine phase, which is what keeps the sharded cycle engine
// race-free and retransmission byte-identical across shard-thread
// counts (DESIGN.md §5d).
//
// The set of link kinds is closed, so the hot-path methods are
// non-virtual: each tests the kind tag and calls the concrete class's
// same-named inline body — IdealLink's pipe operations below (exactly
// the pre-refactor ones) or RetxLink's. The dispatch lives in
// link/retx.h, which this header includes at its end. Introspection
// (oracle views), fault hooks and snapshot save/restore are virtual —
// they run off the per-cycle path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "common/assert.h"
#include "common/types.h"
#include "link/pipe.h"

namespace rair {

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// Which link-layer implementation a network is wired with
/// (NetworkConfig::linkLayer). Values are serialized into scenario keys;
/// append only.
enum class LinkLayerKind : std::uint8_t { Ideal = 0, Retx = 1 };

/// Stable lowercase names ("ideal", "retx") for CLI flags and logs.
const char* linkLayerKindName(LinkLayerKind kind);
std::optional<LinkLayerKind> linkLayerKindFromName(std::string_view name);

class IdealLink;

/// Abstract link-layer contract. See the file comment for the call-site
/// phase discipline.
class LinkLayer {
 public:
  virtual ~LinkLayer() = default;
  LinkLayer(const LinkLayer&) = delete;
  LinkLayer& operator=(const LinkLayer&) = delete;
  /// Move-constructible only so the typed link vectors can grow while
  /// wiring reserves them; never moved once pointers are handed out.
  LinkLayer(LinkLayer&&) = default;

  LinkLayerKind kind() const { return kind_; }
  Cycle latency() const { return latency_; }

  // ---- Hot-path interface (non-virtual, inline dispatch on the kind) ---

  // Upstream side.
  inline void sendFlit(Cycle now, const Flit& f, int vc);
  /// Zero-copy credit receive; pair with popCredit(). Non-const: a
  /// retransmission layer consumes piggybacked ACK/NAK control here.
  inline const CreditMsg* peekCredit(Cycle now);
  inline void popCredit();
  /// Upstream endpoint's once-per-cycle hook, after its send phase: the
  /// retransmission replay pump. No-op for ideal links.
  inline void tickUpstream(Cycle now);

  // Downstream side.
  /// Zero-copy flit receive; pair with popFlit(). Non-const: a
  /// retransmission layer filters corrupt/out-of-order arrivals here.
  inline const FlitMsg* peekFlit(Cycle now);
  inline void popFlit();
  inline void sendCredit(Cycle now, int vc);
  /// Downstream endpoint's once-per-cycle hook, after its receive+send
  /// phases: flushes staged ACK/NAK control. No-op for ideal links.
  inline void tickDownstream(Cycle now);

  /// True when nothing is in flight in either direction (quiescence).
  inline bool idle() const;

  // ---- Introspection views (oracle census / credit equations) ----------

  /// Flits charged against an upstream credit but not yet in a downstream
  /// buffer: on an ideal link the forward-pipe occupancy of `vc`; on a
  /// retransmission link the replay-buffer residents the receiver has not
  /// yet accepted (wire copies of those entries are ghosts, counted 0).
  virtual int inFlightFlits(int vc) const = 0;
  /// Credits in flight back upstream for `vc` (ACK/NAK control does not
  /// count).
  virtual int inFlightCredits(int vc) const = 0;
  /// Visits every in-flight flit exactly once (the census set: same
  /// definition as inFlightFlits, all VCs).
  virtual void forEachFlit(
      const std::function<void(const FlitMsg&)>& fn) const = 0;

  // ---- Fault hooks ------------------------------------------------------

  /// Removes every in-flight flit for which `doomed` returns true,
  /// calling `refundCredit(vc)` once per removal; returns the number
  /// removed. Used by the fault injector's reconfiguration flush. An
  /// ideal link deletes the pipe entries outright; a retransmission link
  /// cannot remove replay entries without tearing the go-back-N sequence
  /// space, so it tombstones them instead — the entry stays in the
  /// protocol (pumped, replayed, ACKed) but turns census-invisible and is
  /// consumed silently at the receiver.
  virtual int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                         const std::function<void(int)>& refundCredit) = 0;
  /// While down, the receiver end refuses every arrival at peek time (the
  /// CRC handshake fails against a router in soft reset) and keeps a
  /// go-back staged so the sender replays everything once the router
  /// recovers. Only a retransmission layer can redeliver, so IdealLink
  /// rejects this — on the ideal layer a soft reset purges instead.
  virtual void setReceiverDown(bool down) = 0;
  /// Marks the next `count` flits entering the forward wire as corrupt
  /// (CRC failure at the receiver). Only a retransmission layer can
  /// recover a corrupt flit, so IdealLink rejects this.
  virtual void corruptNext(int count) = 0;
  virtual std::uint64_t corruptedFlits() const { return 0; }
  virtual std::uint64_t retransmittedFlits() const { return 0; }

  // ---- Snapshot ---------------------------------------------------------

  /// Serializes the link's full channel state. IdealLink writes exactly
  /// the pre-refactor bytes (flit pipe then credit pipe); RetxLink writes
  /// a versioned section with wires, replay buffer and sequence state.
  virtual void save(snapshot::Writer& w) const = 0;
  virtual void restore(snapshot::Reader& r) = 0;

 protected:
  LinkLayer(LinkLayerKind kind, Cycle latency)
      : kind_(kind), latency_(latency) {
    RAIR_CHECK(latency >= 1);
  }

 private:
  /// Calls `fn` with this link as its concrete kind (link/retx.h).
  template <typename Fn>
  decltype(auto) visit(Fn&& fn);
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const;

  LinkLayerKind kind_;
  Cycle latency_;
};

/// The lossless channel: a forward flit pipe and a reverse credit pipe,
/// exactly the pre-refactor Link. Default link layer everywhere; golden
/// campaign records and snapshot bytes are pinned to it.
class IdealLink final : public LinkLayer {
 public:
  /// SlotBlock bytes one link carves: each pipe takes one push per cycle
  /// (one flit per link, one credit per input port).
  static std::size_t slotBytes(Cycle latency) {
    return DelayPipe<FlitMsg>::slotBytes(latency, 1) +
           DelayPipe<CreditMsg>::slotBytes(latency, 1);
  }

  /// Carves both pipes' slots from `slots`.
  IdealLink(Cycle latency, SlotBlock& slots)
      : LinkLayer(LinkLayerKind::Ideal, latency),
        data_(latency, 1, slots, "ideal link flit pipe"),
        credits_(latency, 1, slots, "ideal link credit pipe") {}

  // Hot path under LinkLayer's contract names: its dispatch lands here
  // for ideal links, and a caller holding an IdealLink binds statically.
  void sendFlit(Cycle now, const Flit& f, int vc) {
    data_.push(now, FlitMsg{f, vc});
  }
  const CreditMsg* peekCredit(Cycle now) const { return credits_.peek(now); }
  void popCredit() { credits_.popFront(); }
  void tickUpstream(Cycle) {}
  const FlitMsg* peekFlit(Cycle now) const { return data_.peek(now); }
  void popFlit() { data_.popFront(); }
  void sendCredit(Cycle now, int vc) { credits_.push(now, CreditMsg{vc}); }
  void tickDownstream(Cycle) {}
  bool idle() const { return data_.empty() && credits_.empty(); }

  int inFlightFlits(int vc) const override;
  int inFlightCredits(int vc) const override;
  void forEachFlit(
      const std::function<void(const FlitMsg&)>& fn) const override;
  int purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                 const std::function<void(int)>& refundCredit) override;
  void corruptNext(int count) override;
  void setReceiverDown(bool down) override;
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::Reader& r) override;

 private:
  DelayPipe<FlitMsg> data_;
  DelayPipe<CreditMsg> credits_;
};

}  // namespace rair

// The inline hot-path dispatch needs both concrete kinds complete.
#include "link/retx.h"

// Canonical virtual-channel wormhole router with pluggable arbitration
// policy (Fig. 5 of the paper: the RAIR router is a canonical router whose
// VA/SA arbiters consume a policy-provided priority and whose DPA logic is
// updated once per cycle).
//
// Pipeline (one stage per cycle per flit):
//   BW   buffer write            (modelled by the 1-cycle post-receive delay)
//   RC   route computation       (head flits)
//   VA   virtual-channel alloc   (VA_in selection + VA_out arbitration)
//   SA   switch allocation       (SA_in + SA_out arbitration)
//   ST   switch traversal        (same cycle as the SA grant)
//   LT   link traversal          (1-cycle link latency)
//
// Flow control is credit-based with *atomic* VC allocation (Table 1): an
// output VC can be allocated only when it is unowned and its downstream
// buffer is fully credited, so at most one packet occupies a VC at a time.
//
// Policy hooks (paper Sec. IV.B, multi-stage prioritization):
//   * VA_in  — NO hook: each input VC picks among its own candidates;
//     flows do not contend here, matching the paper's design.
//   * VA_out — policy priority per contested output VC, tie -> round-robin.
//   * SA_in  — policy priority per input port, tie -> round-robin.
//   * SA_out — policy priority per output port, tie -> round-robin.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/ring.h"
#include "link/link_layer.h"
#include "policy/policy.h"
#include "router/vc.h"
#include "routing/routing.h"
#include "topology/mesh.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

namespace check {
class NetworkOracle;  // read-only auditor of router internals (src/check/)
}

namespace fault {
class FaultInjector;  // fault-event application (src/fault/)
}

/// Cumulative per-router event counters (cheap; always collected). Useful
/// for validating arbitration behaviour and for diagnosing DPA decisions.
struct RouterCounters {
  std::uint64_t vaGrantsNative = 0;  ///< VA_out winners that were native
  std::uint64_t vaGrantsForeign = 0;
  std::uint64_t saGrantsNative = 0;  ///< switch traversals by native flits
  std::uint64_t saGrantsForeign = 0;
  std::uint64_t escapeAllocations = 0;  ///< packets that fell to escape VCs
  std::uint64_t flitsTraversed = 0;
  /// Switch traversals by output port — per-link utilization (the Local
  /// port counts ejections). Sums to flitsTraversed.
  std::array<std::uint64_t, kNumPorts> portFlits{};
};

/// Input-VC state machine (canonical VC router).
enum class VcState : std::uint8_t {
  Idle,       ///< no packet
  Routing,    ///< head buffered, RC pending
  WaitingVa,  ///< routed, requesting an output VC
  Active,     ///< output VC allocated, flits competing for the switch
};

struct RouterConfig {
  VcLayout layout{1, 4, false};
  int vcDepth = 5;  ///< flit buffer slots per VC (Table 1: 5-flit/VC)
  /// Atomic VC allocation: reallocate a VC only when its downstream
  /// buffer has fully drained (one packet per VC at a time). When false,
  /// packets queue back-to-back inside adaptive VC FIFOs; escape VCs stay
  /// atomic either way (Duato escape-path safety).
  bool atomicVcs = true;
};

class Router {
 public:
  /// @param appTag the application mapped onto this router's node; packets
  ///        with a matching AppId are *native* here, all others *foreign*.
  Router(NodeId id, AppId appTag, const RouterConfig& config,
         const Mesh& mesh, const RoutingAlgorithm& routing,
         const ArbiterPolicy& policy, const CongestionView& congestion);

  // --- Wiring (done once by the Network) ---------------------------------
  /// Link whose downstream side is this router's port `p` (flits arrive
  /// here; credits are returned on it).
  void connectIn(Dir p, LinkLayer* link);
  /// Link whose upstream side is this router's port `p` (flits leave here;
  /// credits arrive on it).
  void connectOut(Dir p, LinkLayer* link);

  // --- Per-cycle phases, invoked in order by the Network ------------------
  /// Updates policy state with last cycle's occupancy; drains arriving
  /// flits and credits from the links.
  void beginCycle(Cycle now);
  /// RC stage for freshly buffered head flits.
  void routeCompute(Cycle now);
  /// VA stage: input selection and output arbitration.
  void vcAllocate(Cycle now);
  /// SA stage (SA_in + SA_out) and switch traversal of the winners;
  /// returns the flits that traversed the switch.
  int switchAllocateAndTraverse(Cycle now);
  /// Snapshots VC occupancy for next cycle's policy update and runs the
  /// link layers' once-per-cycle hooks (retransmission pump on out-links,
  /// ACK/NAK flush on in-links; no-ops on ideal links).
  void endCycle(Cycle now);

  // --- Introspection -------------------------------------------------------
  NodeId id() const { return id_; }
  AppId appTag() const { return appTag_; }

  /// Output VCs on port `p` currently available for allocation, counting
  /// adaptive (non-escape) VCs only; 0 when the port is unconnected. This
  /// is the congestion metric exported to routing selection functions —
  /// maintained incrementally, so reading it is O(1).
  int freeAdaptiveOutVcs(Dir p) const {
    const auto port = static_cast<size_t>(p);
    if (outLinks_[port] == nullptr) return 0;
    return freeAdaptive_[port];
  }

  /// Occupied input VCs holding native / foreign traffic (all ports) —
  /// the OVC_n / OVC_f registers of the paper's DPA logic.
  RouterOccupancy occupancy() const;

  /// Cumulative event counters since construction.
  const RouterCounters& counters() const { return counters_; }

  /// True when no flit is buffered and no VC is mid-packet.
  bool quiescent() const;

  const PolicyState* policyState() const { return policyState_.get(); }

  /// Test hook for oracle validation: discards one credit of output VC
  /// (p, vc) as if the upstream credit message had been lost on the wire.
  /// The router's own incremental bookkeeping is kept consistent (as real
  /// hardware would — it cannot know a credit was lost), so only the
  /// cross-link credit-conservation invariant breaks, which is exactly
  /// what the simulation oracle must detect. Returns false when the port
  /// is unconnected or no credit is outstanding to drop.
  bool debugDropCredit(Dir p, int vc);

  /// Snapshot hooks: every primary field a future cycle reads — VC state
  /// machines, buffered flits, credits, round-robin pointers, counters and
  /// the policy state. restore() rebuilds the aggregates derived from them
  /// with recountAggregates(); the per-cycle scratch arrays (vaRequests_,
  /// saInWinners_) are rebuilt each cycle and excluded. restore() requires
  /// an identically configured router.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  friend class check::NetworkOracle;
  friend class fault::FaultInjector;
  struct InputVc {
    VcState state = VcState::Idle;
    FixedRing<Flit> buf;  ///< vcDepth slots of the router's slot block
    RouteResult route;
    int outPort = -1;
    int outVc = -1;
    Cycle ready = 0;  ///< earliest cycle of the next pipeline action
    /// Occupancy class of the buffered front flit, maintained
    /// incrementally: 0 = empty, 1 = native, 2 = foreign.
    std::uint8_t occClass = 0;
    /// Id of the packet this VC is currently strung with (head arrived or
    /// surfaced); 0 while Idle. Lets the fault layer doom a whole packet
    /// from any one of its flits without scanning buffers.
    PacketId pktId = 0;
  };

  struct OutputVc {
    int credits = 0;
    bool allocated = false;
    int ownerPort = -1;
    int ownerVc = -1;
  };

  struct VaRequest {
    int inPort, inVc;
    int outPort, outVc;
  };

  struct SaWinner {
    int inPort, inVc;
    int outPort, outVc;
  };

  InputVc& inVc(int port, int vc) {
    return inputs_[static_cast<size_t>(port * layout_.totalVcs() + vc)];
  }
  const InputVc& inVc(int port, int vc) const {
    return inputs_[static_cast<size_t>(port * layout_.totalVcs() + vc)];
  }
  OutputVc& outVc(int port, int vc) {
    return outputs_[static_cast<size_t>(port * layout_.totalVcs() + vc)];
  }
  const OutputVc& outVc(int port, int vc) const {
    return outputs_[static_cast<size_t>(port * layout_.totalVcs() + vc)];
  }

  bool isNative(const Flit& f) const {
    return appTag_ != kNoApp && f.app == appTag_;
  }

  /// Whether output VC (port, vc) can be allocated to a packet of
  /// `flitsNeeded` flits now. Atomic mode (and escape VCs): unowned and
  /// downstream buffer empty. Non-atomic: unowned and enough credits for
  /// the WHOLE packet — a committed packet can then always fully vacate
  /// its current buffer, which keeps Duato's escape argument valid (the
  /// front packet of any buffer is either uncommitted, so it can take the
  /// escape path, or committed with guaranteed space downstream).
  bool outVcAvailable(int port, int vc, int flitsNeeded) const;

  /// VA_in: choose the (outPort, outVc) this input VC requests this cycle,
  /// or false if nothing suitable is available.
  bool selectOutputVc(Cycle now, int inPort, int inVcIdx, VaRequest& out);

  /// Picks the best available adaptive output VC on `port` for `f`
  /// (RAIR class preference: foreign packets try Global VCs first, native
  /// packets Regional first); returns -1 if none.
  int pickAdaptiveVc(int port, const Flit& f) const;

  ArbCandidate makeCandidate(const Flit& f, VcClass outClass,
                             Cycle now) const;

  /// Maintains occNative_/occForeign_ and the per-VC occClass after the
  /// front flit of `ivc` changed (push into empty buffer or pop).
  void reclassifyOccupancy(InputVc& ivc);

  /// Rebuilds every aggregate the pipeline keeps incrementally (per-VC
  /// occClass, occNative_/occForeign_, freeAdaptive_, the pending/active
  /// counters and the state bitmasks) from the input and output VC state.
  /// The one from-scratch recount: construction, restore() and the fault
  /// layer's repair after a topology change call it.
  void recountAggregates();

  /// Adjusts freeAdaptive_ when output VC (port, vc) may have crossed the
  /// "available for a 1-flit packet" boundary. `wasFree` is the
  /// availability before the mutation.
  void noteOutVcFreeChange(int port, int vc, bool wasFree);

  /// Availability of (port, vc) for a minimal (1-flit) packet, ignoring
  /// link connectivity — the quantity freeAdaptive_ counts.
  bool countsAsFree(const OutputVc& o, int vc) const {
    if (o.allocated) return false;
    return (atomicVcs_ || layout_.isEscape(vc)) ? o.credits == vcDepth_
                                                : o.credits >= 1;
  }

  NodeId id_;
  AppId appTag_;
  VcLayout layout_;
  int vcDepth_;
  bool atomicVcs_;
  const Mesh* mesh_;
  const RoutingAlgorithm* routing_;
  const ArbiterPolicy* policy_;
  const CongestionView* congestion_;
  std::unique_ptr<PolicyState> policyState_;

  std::vector<InputVc> inputs_;    // [port][vc] flattened
  std::vector<OutputVc> outputs_;  // [port][vc] flattened
  std::array<LinkLayer*, kNumPorts> inLinks_{};
  std::array<LinkLayer*, kNumPorts> outLinks_{};

  /// One allocation for every per-VC array sized at construction: the
  /// input VC flit buffers (vcDepth slots each), vaRr_ and vaRequests_.
  SlotBlock slots_;

  // Round-robin grant pointers.
  std::span<int> vaRr_;                  // per output VC, over input-VC ids
  std::array<int, kNumPorts> saInRr_{};  // per input port, over VC ids
  std::array<int, kNumPorts> saOutRr_{};  // per output port, over ports

  // Scratch reused every cycle: at most one VA request per input VC and
  // one SA_in winner per input port.
  VaRequest* vaRequests_ = nullptr;
  int numVaRequests_ = 0;
  std::array<SaWinner, kNumPorts> saInWinners_{};
  int numSaInWinners_ = 0;

  RouterOccupancy prevOccupancy_;
  RouterCounters counters_;

  // Incrementally maintained aggregates (hot path avoids full scans);
  // derived state, rebuilt by recountAggregates().
  int occNative_ = 0;   ///< input VCs whose front flit is native
  int occForeign_ = 0;  ///< input VCs whose front flit is foreign
  std::array<int, kNumPorts> freeAdaptive_{};  ///< per out port, 1-flit avail
  int pendingRc_ = 0;  ///< input VCs in Routing
  int pendingVa_ = 0;  ///< input VCs in WaitingVa
  int numActive_ = 0;  ///< input VCs in Active

  /// Fault-injected SA gate: bit p set means no input VC may win switch
  /// allocation toward output port p this cycle (a stalled crossbar
  /// output). Maintained by the fault injector; not serialized — the
  /// fault section's restore replays the applied plan prefix to set it.
  std::uint32_t stalledOutPorts_ = 0;

  // Per-port bitmask of input VCs in each pipeline state (bit = VC index).
  // The RC/VA/SA scans walk set bits in ascending order — identical visit
  // order to the full scan, but cost proportional to occupancy.
  std::array<std::uint64_t, kNumPorts> routingMask_{};
  std::array<std::uint64_t, kNumPorts> waitingMask_{};
  std::array<std::uint64_t, kNumPorts> activeMask_{};

  // Links whose per-cycle hooks are not no-ops (kind != Ideal), filled by
  // connectIn/connectOut so endCycle skips the tick loop entirely on an
  // all-ideal network. Kept last: touched only during construction and in
  // endCycle's (usually empty) tick loop, so they stay off the cache
  // lines the pipeline stages walk every cycle.
  std::array<LinkLayer*, kNumPorts> tickIn_{};
  std::array<LinkLayer*, kNumPorts> tickOut_{};
  int numTickIn_ = 0;
  int numTickOut_ = 0;

  void setStateBit(std::array<std::uint64_t, kNumPorts>& m, int port,
                   int vc, bool on) {
    if (on)
      m[static_cast<size_t>(port)] |= std::uint64_t{1} << vc;
    else
      m[static_cast<size_t>(port)] &= ~(std::uint64_t{1} << vc);
  }
};

}  // namespace rair

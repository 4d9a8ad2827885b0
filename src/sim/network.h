// The assembled on-chip network: routers, NICs, links, and the side-band
// congestion-information network used by non-local adaptive routing.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "link/link_layer.h"
#include "link/retx.h"
#include "policy/policy.h"
#include "region/region_map.h"
#include "router/router.h"
#include "routing/routing.h"
#include "sim/nic.h"
#include "topology/mesh.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

struct NetworkConfig {
  int numClasses = 1;
  /// VCs per message class, including the escape VC. The paper's synthetic
  /// runs use 5 here (1 escape + 2 regional + 2 global — the "roughly the
  /// same" split of Sec. VI); Table 1's full-system config uses 4.
  int vcsPerClass = 5;
  /// Tag adaptive VCs Regional/Global (RAIR's VC regionalization). Safe to
  /// enable for non-RAIR policies (they ignore the tag); kept explicit so
  /// baselines run the exact canonical router.
  bool rairPartition = false;
  /// Global VCs per class (-1: half the adaptive VCs). Ablation knob.
  int globalVcsPerClass = -1;
  int vcDepth = 5;      ///< Table 1: 5-flit VCs
  /// Atomic VC allocation (Table 1's configuration, and the default): an
  /// adaptive VC is (re)allocated only when its downstream buffer is
  /// empty, so it holds one packet at a time. When false, packets queue
  /// back-to-back inside adaptive VC FIFOs (allocation then requires
  /// credits for the whole packet, which keeps the escape-path deadlock
  /// argument valid); escape VCs are always atomic.
  bool atomicVcs = true;
  Cycle linkLatency = 1;
  /// Which link-layer implementation every channel is built with. Ideal
  /// (the default) is the paper's lossless channel; Retx adds
  /// CRC/retransmission and enables corrupt_flit fault plans.
  LinkLayerKind linkLayer = LinkLayerKind::Ideal;
};

/// Owns every hardware element. The sharded cycle engine (sim/shard.h)
/// advances them one cycle at a time through the phase slices below.
class Network final : public CongestionView {
 public:
  Network(const Mesh& mesh, const RegionMap& regions, NetworkConfig config,
          RoutingKind routingKind, const ArbiterPolicy& policy);

  // --- Shard-callable phase slices (sim/shard.h) -------------------------
  // One clock edge is phase A over every node, then phase B over every
  // node, then the congestion-history advance. The sharded engine runs
  // each phase on disjoint contiguous node ranges with a barrier between
  // them (and the advance once, on the coordinator, after phase B). Each
  // slice touches only range-local state: a node's own NIC/router buffers,
  // its own side of the attached links and its own free-VC history row —
  // the two DelayPipes of a link (flits downstream, credits upstream) are
  // each written by exactly one endpoint per phase, so disjoint ranges
  // never race and the fused schedule is byte-identical to the unfused
  // whole-network pass order (all NIC ticks, then each router stage over
  // all routers) for any partition.

  /// Fused phase A over [begin, end): NIC tick, then router beginCycle /
  /// routeCompute / vcAllocate per node. Reads the congestion history of
  /// completed cycles (phase B overwrites its oldest slot only after the
  /// phase barrier), writes node-local state only.
  void phaseInjectRoute(Cycle now, NodeId begin, NodeId end);
  /// Fused phase B over [begin, end): switchAllocateAndTraverse / endCycle
  /// per node, then the node's four free-VC counts into this cycle's
  /// history slot. Returns the flits the range's switches moved in this
  /// cycle.
  int phaseTraversePropagate(Cycle now, NodeId begin, NodeId end);
  /// Run once after phase B: the cycle phase B just recorded becomes the
  /// newest one aggregatedFree reads.
  void advanceCongestionHistory() { newest_ = writeSlot(); }

  Nic& nic(NodeId n) { return nics_[static_cast<size_t>(n)]; }
  const Nic& nic(NodeId n) const { return nics_[static_cast<size_t>(n)]; }
  Router& router(NodeId n) { return routers_[static_cast<size_t>(n)]; }
  const Router& router(NodeId n) const {
    return routers_[static_cast<size_t>(n)];
  }
  const Mesh& mesh() const { return *mesh_; }
  const NetworkConfig& config() const { return config_; }
  const VcLayout& layout() const { return layout_; }
  const RoutingAlgorithm& routing() const { return *routing_; }
  /// Mutable routing access for the fault layer (attaching/detaching the
  /// degraded-topology tables). Never used on the cycle hot path.
  RoutingAlgorithm& routingMut() { return *routing_; }

  /// Cumulative switch traversals (flit-hops) summed over all routers.
  std::uint64_t totalFlitsTraversed() const;

  /// Uniform view of every link in wiring order (oracle sweeps, tools).
  const std::vector<LinkLayer*>& links() const { return links_; }

  /// Network-wide link-layer fault totals (0 on ideal links).
  std::uint64_t totalCorruptedFlits() const;
  std::uint64_t totalRetransmittedFlits() const;

  /// True when every router, NIC and link holds no traffic.
  bool quiescent() const;

  // CongestionView:
  int freeVcsThrough(NodeId n, Dir d) const override;
  int aggregatedFree(NodeId n, Dir d, int hops) const override;

  /// Snapshot hooks: the side-band congestion history, then one named
  /// section per hardware element. Wiring and config are reconstructed,
  /// not serialized — restore() requires an identically built network.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  void wire();
  /// The history slot phase B of the current cycle writes: the oldest one.
  std::size_t writeSlot() const {
    return newest_ + 1 == histSlots_ ? 0 : newest_ + 1;
  }
  /// freeHist_ index of (node, dir index) `age` completed cycles back.
  std::size_t histIndex(std::size_t age, NodeId n, int dirIdx) const {
    const std::size_t slot =
        (newest_ + histSlots_ - age % histSlots_) % histSlots_;
    return (slot * static_cast<std::size_t>(mesh_->numNodes()) +
            static_cast<std::size_t>(n)) * 4 +
           static_cast<std::size_t>(dirIdx);
  }

  const Mesh* mesh_;
  const RegionMap* regions_;
  NetworkConfig config_;
  VcLayout layout_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  const ArbiterPolicy* policy_;

  // Contiguous element storage: the per-cycle phase loops stride through
  // these directly instead of chasing one heap pointer per element. All
  // element vectors are reserved to their exact final size before wiring,
  // so the LinkLayer*/element pointers handed out during wire() stay
  // valid. Exactly one of the two typed link vectors is populated (per
  // config_.linkLayer); links_ is the uniform view over it. linkSlots_
  // holds every link's wire and replay-buffer slots.
  std::vector<Router> routers_;
  std::vector<Nic> nics_;
  SlotBlock linkSlots_;
  std::vector<IdealLink> idealLinks_;
  std::vector<RetxLink> retxLinks_;
  std::vector<LinkLayer*> links_;

  // Mesh adjacency flattened once at construction: [node][4 router dirs]
  // -> neighbor id or -1. aggregatedFree walks it instead of recomputing
  // coordinate arithmetic per hop.
  std::vector<NodeId> neighborTable_;

  // Side-band congestion network, kept as a history of per-cycle free
  // adaptive VC counts: freeHist_[slot][node][4 dirs] holds
  // router(node).freeAdaptiveOutVcs(dir) as phase B left it in one cycle.
  // The h-hop aggregate reads the router h hops away from the slot h
  // cycles old (one-hop-per-cycle wire propagation), so DBAR's sums are
  // formed on query from the newest maxHops_ cycles, so the ring holds
  // exactly those (at least one slot): phase B overwrites the oldest only
  // after phase A's last query of the cycle. A snapshot carries the ring
  // in age order. Zero-initialised slots are the cycles before cycle 0.
  int maxHops_;
  std::size_t histSlots_;
  std::size_t newest_ = 0;  ///< slot of the newest completed cycle
  std::vector<int> freeHist_;
};

}  // namespace rair

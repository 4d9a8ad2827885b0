// The assembled on-chip network: routers, NICs, links, and the side-band
// congestion-information network used by non-local adaptive routing.
#pragma once

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
  // One clock edge is phase A over every node, the congestion retire,
  // then phase B over every node. The sharded engine runs each phase on
  // disjoint contiguous node ranges with a barrier between them (and the
  // retire once, on the coordinator, at that barrier). Each slice touches
  // only range-local state: a node's own NIC/router buffers plus its own
  // side of the attached links — the two DelayPipes of a link (flits
  // downstream, credits upstream) are each written by exactly one endpoint
  // per phase, so disjoint ranges never race and the fused schedule is
  // byte-identical to the unfused whole-network pass order (all NIC
  // ticks, then each router stage over all routers) for any partition.

  /// Fused phase A over [begin, end): NIC tick, then router beginCycle /
  /// routeCompute / vcAllocate per node. Reads the congestion table
  /// (stable until phaseRetireCongestion), writes node-local state only.
  void phaseInjectRoute(Cycle now, NodeId begin, NodeId end);
  /// Run once between phase A and phase B: retires the congestion table
  /// (current aggregates become the previous-cycle values phase B reads).
  void phaseRetireCongestion();
  /// Fused phase B over [begin, end): switchAllocateAndTraverse / endCycle
  /// per node, then the node's congestion-aggregate row (own free-VC count
  /// combined with the neighbors' retired previous-cycle rows). Returns the
  /// flits the range's switches moved this cycle.
  int phaseTraversePropagate(Cycle now, NodeId begin, NodeId end);

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

  /// Snapshot hooks: one named section per hardware element plus the
  /// side-band congestion network. Wiring and config are reconstructed,
  /// not serialized — restore() requires an identically built network.
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  void wire();
  /// One node's congestion-aggregate row, from its post-traversal free-VC
  /// counts and the neighbors' aggPrev_ rows.
  void propagateCongestionRow(NodeId n);

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
  // config_.linkLayer); links_ is the uniform view over it.
  std::vector<Router> routers_;
  std::vector<Nic> nics_;
  std::vector<IdealLink> idealLinks_;
  std::vector<RetxLink> retxLinks_;
  std::vector<LinkLayer*> links_;

  // Mesh adjacency flattened once at construction: [node][4 router dirs]
  // -> neighbor id or -1. propagateCongestionRow runs every cycle and
  // would otherwise recompute coordinate arithmetic per (node, dir).
  std::vector<NodeId> neighborTable_;

  // Side-band congestion network. agg_[n][d][h] = sum of free adaptive VC
  // counts through port d over routers n, n+1d, ... n+hd (h+1 terms), with
  // the h-hop term h cycles old (one-hop-per-cycle wire propagation).
  int maxHops_;
  std::vector<int> agg_;      // [node][4 dirs][maxHops_]
  std::vector<int> aggPrev_;  // previous cycle's values
  int aggAt(const std::vector<int>& v, NodeId n, int dirIdx, int h) const {
    return v[(static_cast<size_t>(n) * 4 + static_cast<size_t>(dirIdx)) *
                 static_cast<size_t>(maxHops_) +
             static_cast<size_t>(h)];
  }
  int& aggAt(std::vector<int>& v, NodeId n, int dirIdx, int h) {
    return v[(static_cast<size_t>(n) * 4 + static_cast<size_t>(dirIdx)) *
                 static_cast<size_t>(maxHops_) +
             static_cast<size_t>(h)];
  }
};

}  // namespace rair

// Reconfigurable routing tables for degraded topologies.
//
// When the fault subsystem kills a link (or soft-resets a router, which
// kills its incident links for the duration), minimal XY escape routing is
// no longer deadlock-free (the dimension-ordered path may cross the dead
// channel). RoutingTables maintains, per dead-link set, the LBDR-style
// per-node connectivity bits plus full routing tables for the degraded
// graph:
//
//   * escape routes follow a BFS spanning tree per connected component
//     (root = lowest node id). Routing along the unique tree path is the
//     up*/down* special case, so the escape subnetwork stays cycle-free,
//     which is what keeps the degraded graph deadlock-free under Duato's
//     protocol. It bounds neither path length nor self-overlap: a packet
//     may alternate adaptive (distance-decreasing) and escape (tree,
//     possibly distance-increasing) hops, come back to a node it left and
//     re-enter a non-atomic VC that still holds its own tail (see ROADMAP
//     item 2).
//   * adaptive candidates are the BFS-distance-decreasing directions on
//     the degraded graph (capped at two, enumerated in fixed N,E,S,W
//     order), so adaptive VCs retain path diversity where it exists.
//
// Reconfiguration engine. setLinkDead() only flips connectivity flags and
// marks the components touching the changed channel dirty; commit()
// repairs the tables incrementally, bounded to the union of dirty
// components: component relabeling, spanning-tree rebuild and the
// per-destination distance/tree columns are all recomputed only over that
// affected set. The invariant making this sound is that the affected set
// is closed under alive edges — an alive edge leaving it would either have
// been alive at the last commit (same component, so the far side is
// affected too) or have been revived since (which dirtied the far side's
// component). Repaired dist/tree entries are byte-identical to a full
// rebuild; component labels are fresh (never reused), so only the
// partition — not the numeric label — is stable, and every consumer
// (reachable(), unreachablePairs()) is label-invariant. Under
// -DRAIR_CHECKS=ON every commit() cross-checks itself against a
// from-scratch rebuild. recompute() remains the full O(N^2) rebuild, used
// at construction, on snapshot restore, and as the cross-check reference.
//
// Tables are repaired only at fault events, never on the cycle hot path.
// While no link is dead (`active() == false`) the routing layer bypasses
// this object entirely, keeping fault-free runs byte-identical to a build
// without the fault subsystem attached.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.h"
#include "topology/mesh.h"

namespace rair {

class RoutingTables {
 public:
  explicit RoutingTables(const Mesh& mesh);

  /// Marks the undirected physical channel leaving `n` through `d` dead or
  /// alive. Both directions of the channel fail together. Dirties the
  /// components touching the channel; call commit() (incremental) or
  /// recompute() (full) after a batch of changes, before any routing
  /// query.
  void setLinkDead(NodeId n, Dir d, bool dead);

  /// True when the router-router channel leaving `n` through `d` exists
  /// and is not dead. Local is always alive; mesh-edge ports are not.
  bool linkAlive(NodeId n, Dir d) const;

  bool active() const { return numDead_ > 0; }
  int numDeadLinks() const { return numDead_; }  ///< undirected channels

  /// Incrementally repairs components, distances and spanning-tree escape
  /// tables for every component dirtied since the last commit/recompute.
  /// O(|affected|^2); a no-op when nothing changed. Under RAIR_CHECKS the
  /// result is verified against a from-scratch rebuild.
  void commit();

  /// Full rebuild of components, distances and spanning-tree escape
  /// tables for the current dead-link set. O(N^2) regardless of what
  /// changed; commit() is the incremental equivalent.
  void recompute();

  /// Test/bench hook: while true, commit() falls back to the full
  /// rebuild, so a scenario can be A/B'd between the incremental and the
  /// full-rebuild paths (outputs must be byte-identical).
  static bool forceFullRebuildForTest;

  /// LBDR-style connectivity bits of the alive router-router links at `n`:
  /// bit 0 = North, 1 = East, 2 = South, 3 = West.
  std::uint8_t connectivityBits(NodeId n) const;

  bool reachable(NodeId a, NodeId b) const {
    return comp_[static_cast<std::size_t>(a)] ==
           comp_[static_cast<std::size_t>(b)];
  }
  int componentOf(NodeId n) const {
    return comp_[static_cast<std::size_t>(n)];
  }

  /// Ordered node pairs (a, b), a != b, with no path between them. Cached
  /// between topology events; the first query after a commit/recompute
  /// pays one O(N) scan, later ones are free.
  std::uint64_t unreachablePairs() const;

  /// BFS hop distance on the degraded graph, -1 when unreachable.
  int distance(NodeId from, NodeId to) const;

  /// Next hop along the spanning-tree escape path. Requires
  /// reachable(here, dst) and here != dst.
  Dir escapeDir(NodeId here, NodeId dst) const;

  /// Full RC result on the degraded graph. Requires reachable(here, dst).
  RouteResult routeFor(NodeId here, NodeId dst) const;

  const Mesh& mesh() const { return *mesh_; }

 private:
  static int dirIndex(Dir d) { return static_cast<int>(d) - 1; }
  std::size_t at(NodeId dst, NodeId node) const {
    return static_cast<std::size_t>(dst) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(node);
  }

  void markDirty(std::int32_t comp);
  bool isDirty(std::int32_t comp) const;
  /// Relabels + rebuilds tree/distance state over the dirty components.
  void repairAffected();
  /// Rebuilds the per-destination distance and tree columns for `dst`,
  /// clearing only the entries listed in `scope` first (the affected set
  /// for commit(), all nodes for recompute()).
  void rebuildColumns(NodeId dst, const std::vector<NodeId>& scope);
  /// Derives treeAdj_ bits from treeParent_ over `scope`.
  void rebuildTreeAdj(const std::vector<NodeId>& scope);
  std::uint64_t computeUnreachablePairs() const;
#ifdef RAIR_CHECKS
  void crossCheckAgainstFullRebuild() const;
#endif

  const Mesh* mesh_;
  int n_;
  std::vector<std::uint8_t> deadOut_;   ///< n*4 directed flags (symmetric)
  int numDead_ = 0;                     ///< undirected dead channels
  std::vector<std::int32_t> comp_;      ///< component label per node
  std::vector<std::int16_t> dist_;      ///< [dst*n + node] graph distance
  std::vector<std::uint8_t> treeDir_;   ///< [dst*n + node] tree next hop
  std::vector<std::uint8_t> treeParent_;  ///< dir toward BFS parent
  std::vector<std::uint8_t> treeAdj_;     ///< alive dirs that are tree edges
  std::int32_t nextComp_ = 0;           ///< fresh labels, never reused
  std::vector<std::int32_t> dirtyComps_;  ///< components awaiting commit()
  bool pending_ = false;
  std::vector<NodeId> queue_;           ///< BFS scratch
  std::vector<std::uint8_t> seen_;      ///< per-node scratch, n bytes
  mutable std::uint64_t unreachCache_ = 0;
  mutable bool unreachValid_ = false;
};

}  // namespace rair

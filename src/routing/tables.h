// Reconfigurable routing tables for degraded topologies.
//
// When the fault subsystem kills a link (or soft-resets a router, which
// kills its incident links for the duration), minimal XY escape routing is
// no longer deadlock-free (the dimension-ordered path may cross the dead
// channel). RoutingTables maintains, per dead-link set, full routing
// tables for the degraded graph:
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
// Reconfiguration. setLinkDead() only flips connectivity flags;
// recompute() then rebuilds component labels, spanning trees, the
// per-destination distance and tree columns and the unreachable-pair
// count from scratch, O(N^2) whatever changed. It runs once at
// construction, once per cycle that carries topology events, and on
// snapshot restore.
//
// Tables are rebuilt only at fault events, never on the cycle hot path.
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
  /// alive. Both directions of the channel fail together. Call
  /// recompute() after a batch of changes, before any routing query.
  void setLinkDead(NodeId n, Dir d, bool dead);

  /// True when the router-router channel leaving `n` through `d` exists
  /// and is not dead. Local is always alive; mesh-edge ports are not.
  bool linkAlive(NodeId n, Dir d) const;

  bool active() const { return numDead_ > 0; }
  int numDeadLinks() const { return numDead_; }  ///< undirected channels

  /// Rebuilds components, distances, spanning-tree escape tables and the
  /// unreachable-pair count for the current dead-link set.
  void recompute();

  bool reachable(NodeId a, NodeId b) const {
    return comp_[static_cast<std::size_t>(a)] ==
           comp_[static_cast<std::size_t>(b)];
  }

  /// Ordered node pairs (a, b), a != b, with no path between them, as of
  /// the last recompute().
  std::uint64_t unreachablePairs() const { return unreachablePairs_; }

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

  /// Fills the distance and tree columns for `dst` (entries start at
  /// -1/Local).
  void rebuildColumns(NodeId dst);
  /// Derives treeAdj_ bits from treeParent_.
  void rebuildTreeAdj();

  const Mesh* mesh_;
  int n_;
  std::vector<std::uint8_t> deadOut_;   ///< n*4 directed flags (symmetric)
  int numDead_ = 0;                     ///< undirected dead channels
  std::vector<std::int32_t> comp_;      ///< dense component label per node
  std::vector<std::int16_t> dist_;      ///< [dst*n + node] graph distance
  std::vector<std::uint8_t> treeDir_;   ///< [dst*n + node] tree next hop
  std::vector<std::uint8_t> treeParent_;  ///< dir toward BFS parent
  std::vector<std::uint8_t> treeAdj_;     ///< alive dirs that are tree edges
  std::vector<NodeId> queue_;           ///< BFS scratch
  std::uint64_t unreachablePairs_ = 0;
};

}  // namespace rair

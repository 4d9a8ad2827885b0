// RoutingTables: the degraded tables checked against references this file
// computes itself — plain BFS distances over linkAlive() edges, escape
// steps that walk one spanning tree per component, the adaptive-candidate
// rule and the unreachable-pair count — after every rebuild over
// randomized dead-link and soft-reset churn, splits and merges included.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "routing/tables.h"
#include "topology/mesh.h"

namespace rair {
namespace {

constexpr Dir kScanOrder[4] = {Dir::North, Dir::East, Dir::South, Dir::West};

/// Hop distances from `src` over alive links, -1 where unreachable.
std::vector<int> bfsFrom(const RoutingTables& t, NodeId src) {
  const Mesh& mesh = t.mesh();
  std::vector<int> dist(static_cast<std::size_t>(mesh.numNodes()), -1);
  std::vector<NodeId> queue{src};
  dist[static_cast<std::size_t>(src)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId cur = queue[head];
    for (const Dir d : kScanOrder) {
      if (!t.linkAlive(cur, d)) continue;
      const NodeId nb = *mesh.neighbor(cur, d);
      if (dist[static_cast<std::size_t>(nb)] >= 0) continue;
      dist[static_cast<std::size_t>(nb)] =
          dist[static_cast<std::size_t>(cur)] + 1;
      queue.push_back(nb);
    }
  }
  return dist;
}

/// Checks every query of `t` against references computed from
/// linkAlive() alone.
void expectMatchesReferences(const RoutingTables& t) {
  const Mesh& mesh = t.mesh();
  const NodeId n = mesh.numNodes();
  // ref[a][b]: BFS hop distance from a to b.
  std::vector<std::vector<int>> ref;
  for (NodeId v = 0; v < n; ++v) ref.push_back(bfsFrom(t, v));
  const auto refDist = [&](NodeId a, NodeId b) {
    return ref[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
  };
  // Component of each node, named by its lowest member, and its size.
  std::vector<NodeId> compOf(static_cast<std::size_t>(n));
  std::vector<int> compSize(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    NodeId lowest = v;
    for (NodeId w = 0; w < v; ++w)
      if (refDist(v, w) >= 0) lowest = std::min(lowest, w);
    compOf[static_cast<std::size_t>(v)] = lowest;
    ++compSize[static_cast<std::size_t>(lowest)];
  }

  std::uint64_t unreachable = 0;
  std::set<std::pair<NodeId, NodeId>> escapeEdges;  // undirected, lo < hi
  for (NodeId dst = 0; dst < n; ++dst) {
    const RouteResult self = t.routeFor(dst, dst);
    ASSERT_TRUE(self.ejecting);
    for (NodeId v = 0; v < n; ++v) {
      const int d = refDist(v, dst);
      ASSERT_EQ(t.distance(v, dst), d) << "dist " << v << "->" << dst;
      ASSERT_EQ(t.reachable(v, dst), d >= 0) << v << "->" << dst;
      if (d < 0) ++unreachable;
      if (d <= 0) continue;

      // Escape steps reach dst over alive links in fewer hops than the
      // component has nodes.
      const int size = compSize[static_cast<std::size_t>(
          compOf[static_cast<std::size_t>(v)])];
      NodeId cur = v;
      for (int hops = 0; cur != dst; ++hops) {
        ASSERT_LT(hops, size - 1) << "escape walk " << v << "->" << dst;
        const Dir e = t.escapeDir(cur, dst);
        ASSERT_TRUE(t.linkAlive(cur, e)) << "escape " << cur << "->" << dst;
        const NodeId next = *mesh.neighbor(cur, e);
        escapeEdges.emplace(std::min(cur, next), std::max(cur, next));
        cur = next;
      }

      // Adaptive candidates: the first two alive neighbours, in N, E, S,
      // W order, one hop closer to dst.
      std::vector<Dir> expected;
      for (const Dir a : kScanOrder) {
        if (expected.size() == 2) break;
        if (t.linkAlive(v, a) && refDist(*mesh.neighbor(v, a), dst) == d - 1)
          expected.push_back(a);
      }
      const RouteResult rr = t.routeFor(v, dst);
      ASSERT_FALSE(rr.ejecting);
      ASSERT_EQ(rr.numAdaptive, static_cast<int>(expected.size()))
          << v << "->" << dst;
      for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(rr.adaptiveDirs[i], expected[i]) << v << "->" << dst;
      ASSERT_EQ(rr.escapeDir, t.escapeDir(v, dst));
    }
  }
  ASSERT_EQ(t.unreachablePairs(), unreachable);

  // The escape edges of a component of s nodes number s - 1: with every
  // member reaching every other over them, they form one spanning tree.
  std::vector<int> edgesIn(static_cast<std::size_t>(n), 0);
  for (const auto& [a, b] : escapeEdges) {
    ASSERT_EQ(compOf[static_cast<std::size_t>(a)],
              compOf[static_cast<std::size_t>(b)]);
    ++edgesIn[static_cast<std::size_t>(compOf[static_cast<std::size_t>(a)])];
  }
  for (NodeId c = 0; c < n; ++c) {
    const int size = compSize[static_cast<std::size_t>(c)];
    if (size == 0) continue;  // c is not the lowest node of its component
    ASSERT_EQ(edgesIn[static_cast<std::size_t>(c)], size - 1)
        << "component of node " << c;
  }
}

TEST(RoutingTables, TablesMatchIndependentReferencesOverRandomChurn) {
  Mesh mesh(6, 6);
  RoutingTables t(mesh);
  Xoshiro256StarStar rng(0xC0FFEEull);

  // Collect the real links once (east/south canonical orientation).
  std::vector<std::pair<NodeId, Dir>> links;
  for (NodeId v = 0; v < mesh.numNodes(); ++v)
    for (const Dir d : {Dir::East, Dir::South})
      if (mesh.neighbor(v, d)) links.emplace_back(v, d);

  for (int step = 0; step < 120; ++step) {
    // 1-3 flips per event batch; a flip toggles a random link, so the
    // sequence naturally produces splits (components breaking off) and
    // merges (revivals rejoining them).
    const int flips = static_cast<int>(1 + rng.below(3));
    for (int i = 0; i < flips; ++i) {
      const auto& [v, d] = links[rng.below(links.size())];
      t.setLinkDead(v, d, t.linkAlive(v, d));
    }
    t.recompute();
    ASSERT_NO_FATAL_FAILURE(expectMatchesReferences(t)) << step;
  }
}

TEST(RoutingTables, TablesMatchIndependentReferencesOverResetChurn) {
  // Node-granular churn (the soft-reset pattern): kill every incident
  // link of a node at once, later revive them at once.
  Mesh mesh(5, 5);
  RoutingTables t(mesh);
  Xoshiro256StarStar rng(0x5EED5ull);
  std::vector<bool> down(static_cast<std::size_t>(mesh.numNodes()), false);

  for (int step = 0; step < 80; ++step) {
    const auto v = static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(mesh.numNodes())));
    const bool kill = !down[static_cast<std::size_t>(v)];
    down[static_cast<std::size_t>(v)] = kill;
    for (int d = 1; d < kNumPorts; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const auto nb = mesh.neighbor(v, dir);
      if (!nb) continue;
      // Reviving keeps channels shared with a still-down neighbor dead —
      // the injector's Recover rule.
      if (kill)
        t.setLinkDead(v, dir, true);
      else if (!down[static_cast<std::size_t>(*nb)])
        t.setLinkDead(v, dir, false);
    }
    t.recompute();
    ASSERT_NO_FATAL_FAILURE(expectMatchesReferences(t)) << step;
  }
}

TEST(RoutingTables, SplitThenMergeRestoresTheCleanTables) {
  Mesh mesh(6, 6);
  RoutingTables t(mesh);

  // Split: cut the whole column between x=2 and x=3.
  std::vector<NodeId> cut;
  for (int y = 0; y < 6; ++y) cut.push_back(mesh.nodeAt({2, y}));
  for (const NodeId v : cut) t.setLinkDead(v, Dir::East, true);
  t.recompute();
  ASSERT_TRUE(t.active());
  EXPECT_FALSE(t.reachable(mesh.nodeAt({0, 0}), mesh.nodeAt({5, 5})));
  // Ordered pairs across an 18 | 18 split.
  EXPECT_EQ(t.unreachablePairs(), 2u * 18u * 18u);
  ASSERT_NO_FATAL_FAILURE(expectMatchesReferences(t));

  // Merge: revive one bridge; the halves rejoin through it.
  t.setLinkDead(cut[3], Dir::East, false);
  t.recompute();
  EXPECT_TRUE(t.reachable(mesh.nodeAt({0, 0}), mesh.nodeAt({5, 5})));
  EXPECT_EQ(t.unreachablePairs(), 0u);
  ASSERT_NO_FATAL_FAILURE(expectMatchesReferences(t));

  // Full revival deactivates the tables and leaves them as a fresh
  // table's.
  for (const NodeId v : cut) t.setLinkDead(v, Dir::East, false);
  t.recompute();
  EXPECT_FALSE(t.active());
  ASSERT_NO_FATAL_FAILURE(expectMatchesReferences(t));
  const RoutingTables clean(mesh);
  for (NodeId dst = 0; dst < mesh.numNodes(); ++dst) {
    for (NodeId v = 0; v < mesh.numNodes(); ++v) {
      if (v == dst) continue;
      ASSERT_EQ(t.escapeDir(v, dst), clean.escapeDir(v, dst));
    }
  }
}

TEST(RoutingTables, UnreachablePairsIsCachedUntilTheNextEvent) {
  Mesh mesh(4, 4);
  RoutingTables t(mesh);
  EXPECT_EQ(t.unreachablePairs(), 0u);
  const NodeId corner = mesh.nodeAt({0, 0});
  t.setLinkDead(corner, Dir::East, true);
  t.setLinkDead(corner, Dir::South, true);
  t.recompute();
  // Ordered pairs across the {corner} | {15 nodes} split.
  EXPECT_EQ(t.unreachablePairs(), 30u);
  // The count is the last rebuild's: a link change alone leaves it.
  t.setLinkDead(corner, Dir::East, false);
  EXPECT_EQ(t.unreachablePairs(), 30u);
  t.recompute();
  EXPECT_EQ(t.unreachablePairs(), 0u);
}

}  // namespace
}  // namespace rair

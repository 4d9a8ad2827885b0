// RoutingTables reconfiguration engine: property suite comparing the
// event-driven incremental repair (commit()) against a from-scratch full
// rebuild over randomized dead-link/soft-reset sequences — including
// component splits and merges — plus unreachable-pair cache behavior and
// the forceFullRebuildForTest escape hatch.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "routing/tables.h"
#include "topology/mesh.h"

namespace rair {
namespace {

/// Applies the dead set of `src` to a fresh table and fully rebuilds it.
RoutingTables fullRebuildTwin(const Mesh& mesh, const RoutingTables& src) {
  RoutingTables full(mesh);
  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    for (const Dir d : {Dir::East, Dir::South}) {
      if (mesh.neighbor(n, d) && !src.linkAlive(n, d))
        full.setLinkDead(n, d, true);
    }
  }
  full.recompute();
  return full;
}

/// The incremental contract: distances, escape directions and
/// connectivity bits are byte-equal to a full rebuild; component labels
/// only need to induce the same partition (incremental repair allocates
/// fresh labels, the full rebuild dense ones).
void expectMatchesFullRebuild(const Mesh& mesh, const RoutingTables& inc) {
  const RoutingTables full = fullRebuildTwin(mesh, inc);
  const NodeId n = mesh.numNodes();

  ASSERT_EQ(inc.numDeadLinks(), full.numDeadLinks());
  ASSERT_EQ(inc.active(), full.active());
  for (NodeId v = 0; v < n; ++v)
    ASSERT_EQ(inc.connectivityBits(v), full.connectivityBits(v)) << v;

  // Label bijection in both directions == identical partition.
  std::vector<std::int32_t> incToFull, fullToInc;
  for (NodeId v = 0; v < n; ++v) {
    const std::int32_t a = inc.componentOf(v);
    const std::int32_t b = full.componentOf(v);
    if (static_cast<std::size_t>(a) >= incToFull.size())
      incToFull.resize(static_cast<std::size_t>(a) + 1, -1);
    if (static_cast<std::size_t>(b) >= fullToInc.size())
      fullToInc.resize(static_cast<std::size_t>(b) + 1, -1);
    auto& fwd = incToFull[static_cast<std::size_t>(a)];
    auto& rev = fullToInc[static_cast<std::size_t>(b)];
    if (fwd == -1) fwd = b;
    if (rev == -1) rev = a;
    ASSERT_EQ(fwd, b) << "node " << v;
    ASSERT_EQ(rev, a) << "node " << v;
  }

  for (NodeId dst = 0; dst < n; ++dst) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(inc.distance(v, dst), full.distance(v, dst))
          << "dist " << v << "->" << dst;
      ASSERT_EQ(inc.reachable(v, dst), full.reachable(v, dst));
      if (v != dst && inc.reachable(v, dst)) {
        ASSERT_EQ(inc.escapeDir(v, dst), full.escapeDir(v, dst))
            << "escape " << v << "->" << dst;
      }
    }
  }
  ASSERT_EQ(inc.unreachablePairs(), full.unreachablePairs());
}

TEST(RoutingTables, IncrementalCommitIsANoOpWhenClean) {
  Mesh mesh(4, 4);
  RoutingTables t(mesh);
  t.commit();  // never dirtied: must not touch anything
  EXPECT_FALSE(t.active());
  EXPECT_EQ(t.unreachablePairs(), 0u);
}

TEST(RoutingTables, IncrementalMatchesFullRebuildOverRandomChurn) {
  Mesh mesh(6, 6);
  RoutingTables inc(mesh);
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
      inc.setLinkDead(v, d, inc.linkAlive(v, d));
    }
    inc.commit();
    ASSERT_NO_FATAL_FAILURE(expectMatchesFullRebuild(mesh, inc)) << step;
  }
}

TEST(RoutingTables, IncrementalMatchesFullRebuildOverResetChurn) {
  // Node-granular churn (the soft-reset pattern): kill every incident
  // link of a node at once, later revive them at once.
  Mesh mesh(5, 5);
  RoutingTables inc(mesh);
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
        inc.setLinkDead(v, dir, true);
      else if (!down[static_cast<std::size_t>(*nb)])
        inc.setLinkDead(v, dir, false);
    }
    inc.commit();
    ASSERT_NO_FATAL_FAILURE(expectMatchesFullRebuild(mesh, inc)) << step;
  }
}

TEST(RoutingTables, SplitThenMergeRestoresTheCleanTables) {
  Mesh mesh(6, 6);
  RoutingTables inc(mesh);

  // Split: cut the whole column between x=2 and x=3.
  std::vector<NodeId> cut;
  for (int y = 0; y < 6; ++y) cut.push_back(mesh.nodeAt({2, y}));
  for (const NodeId v : cut) inc.setLinkDead(v, Dir::East, true);
  inc.commit();
  ASSERT_TRUE(inc.active());
  EXPECT_FALSE(inc.reachable(mesh.nodeAt({0, 0}), mesh.nodeAt({5, 5})));
  // Ordered pairs across an 18 | 18 split.
  EXPECT_EQ(inc.unreachablePairs(), 2u * 18u * 18u);
  ASSERT_NO_FATAL_FAILURE(expectMatchesFullRebuild(mesh, inc));

  // Merge: revive one bridge; the halves rejoin through it.
  inc.setLinkDead(cut[3], Dir::East, false);
  inc.commit();
  EXPECT_TRUE(inc.reachable(mesh.nodeAt({0, 0}), mesh.nodeAt({5, 5})));
  EXPECT_EQ(inc.unreachablePairs(), 0u);
  ASSERT_NO_FATAL_FAILURE(expectMatchesFullRebuild(mesh, inc));

  // Full revival deactivates the tables entirely.
  for (const NodeId v : cut) inc.setLinkDead(v, Dir::East, false);
  inc.commit();
  EXPECT_FALSE(inc.active());
  ASSERT_NO_FATAL_FAILURE(expectMatchesFullRebuild(mesh, inc));
}

TEST(RoutingTables, UnreachablePairsIsCachedUntilTheNextEvent) {
  Mesh mesh(4, 4);
  RoutingTables t(mesh);
  const NodeId corner = mesh.nodeAt({0, 0});
  t.setLinkDead(corner, Dir::East, true);
  t.setLinkDead(corner, Dir::South, true);
  t.commit();
  EXPECT_EQ(t.unreachablePairs(), 30u);
  EXPECT_EQ(t.unreachablePairs(), 30u);  // cached path
  t.setLinkDead(corner, Dir::East, false);
  t.commit();
  EXPECT_EQ(t.unreachablePairs(), 0u);  // invalidated by the event
}

TEST(RoutingTables, ForceFullRebuildFlagRoutesCommitThroughRecompute) {
  Mesh mesh(4, 4);
  RoutingTables a(mesh);
  RoutingTables b(mesh);
  RoutingTables::forceFullRebuildForTest = true;
  a.setLinkDead(mesh.nodeAt({1, 1}), Dir::East, true);
  a.commit();
  RoutingTables::forceFullRebuildForTest = false;
  b.setLinkDead(mesh.nodeAt({1, 1}), Dir::East, true);
  b.commit();
  // Same distances and escapes either way (labels may differ).
  for (NodeId dst = 0; dst < mesh.numNodes(); ++dst)
    for (NodeId v = 0; v < mesh.numNodes(); ++v)
      ASSERT_EQ(a.distance(v, dst), b.distance(v, dst));
  ASSERT_NO_FATAL_FAILURE(expectMatchesFullRebuild(mesh, b));
}

}  // namespace
}  // namespace rair

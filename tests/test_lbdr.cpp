#include "region/lbdr.h"

#include <gtest/gtest.h>

#include "routing/tables.h"

namespace rair {
namespace {

TEST(Lbdr, PaperFourteenPercentExample) {
  // Paper Sec. III.B: 16 cores, 4 MCs, 4 applications of 4 threads each
  // -> ~14% of mappings satisfy the one-MC-per-region constraint.
  const double frac = lbdrValidMappingFraction(16, 4, 4, 4);
  EXPECT_NEAR(frac, 0.1407, 0.001);
}

TEST(Lbdr, FewerMcsThanAppsIsImpossible) {
  EXPECT_DOUBLE_EQ(lbdrValidMappingFraction(16, 3, 4, 4), 0.0);
  EXPECT_DOUBLE_EQ(lbdrValidMappingFraction(8, 0, 2, 4), 0.0);
}

TEST(Lbdr, SingleAppAlwaysValidWithAnMc) {
  EXPECT_DOUBLE_EQ(lbdrValidMappingFraction(8, 1, 1, 8), 1.0);
  EXPECT_DOUBLE_EQ(lbdrValidMappingFraction(8, 4, 1, 8), 1.0);
}

TEST(Lbdr, TwoAppsTwoMcsByHand) {
  // 4 cores {m1, m2, c1, c2}, 2 apps x 2 threads. Total partitions:
  // C(4,2) = 6. Valid (each app one MC): app0 in {m1c1, m1c2, m2c1, m2c2}
  // = 4. Fraction 2/3.
  EXPECT_NEAR(lbdrValidMappingFraction(4, 2, 2, 2), 2.0 / 3.0, 1e-9);
}

TEST(Lbdr, MoreMcsIncreaseValidFraction) {
  const double f4 = lbdrValidMappingFraction(16, 4, 4, 4);
  const double f6 = lbdrValidMappingFraction(16, 6, 4, 4);
  const double f8 = lbdrValidMappingFraction(16, 8, 4, 4);
  EXPECT_LT(f4, f6);
  EXPECT_LT(f6, f8);
  EXPECT_LE(f8, 1.0);
}

TEST(Lbdr, MappingValidityCheck) {
  Mesh m(4, 4);
  const auto corners = m.cornerNodes();  // 0, 3, 12, 15
  // Quadrants: each quadrant contains exactly one corner -> valid.
  const auto quads = RegionMap::quadrants(m);
  EXPECT_TRUE(lbdrMappingValid(quads, corners));
  // Vertical quarters (4 columns x 1): columns 1 and 2 contain no corner
  // -> invalid, matching the paper's Fig. 3(b) intuition.
  const auto stripes = RegionMap::blockGrid(m, 4, 1);
  EXPECT_FALSE(lbdrMappingValid(stripes, corners));
}

TEST(Lbdr, PacketLegality) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  EXPECT_TRUE(lbdrPacketAllowed(rm, m.nodeAt({0, 0}), m.nodeAt({3, 7})));
  EXPECT_FALSE(lbdrPacketAllowed(rm, m.nodeAt({0, 0}), m.nodeAt({4, 0})));
}

TEST(Lbdr, UnassignedNodesDoNotSatisfyConstraint) {
  Mesh m(4, 4);
  AppSpec a0{0, {5, 6, 9, 10}};  // interior block, no corners
  const RegionMap rm(m, {a0});
  EXPECT_FALSE(lbdrMappingValid(rm, m.cornerNodes()));
}

// ---- Degraded connectivity ------------------------------------------------

TEST(Lbdr, ConnectivityBitsTrackDeadLinksOnBothEndpoints) {
  Mesh m(4, 4);
  RoutingTables topo(m);
  // Interior node: all four links alive. Corner (0,0): East + South only.
  EXPECT_EQ(topo.connectivityBits(m.nodeAt({1, 1})), 0b1111);
  EXPECT_EQ(topo.connectivityBits(m.nodeAt({0, 0})), 0b0110);
  // Killing (1,1)'s east channel clears the East bit there and the West
  // bit on the far endpoint — the undirected channel fails as one.
  topo.setLinkDead(m.nodeAt({1, 1}), Dir::East, true);
  topo.recompute();
  EXPECT_EQ(topo.connectivityBits(m.nodeAt({1, 1})), 0b1101);
  EXPECT_EQ(topo.connectivityBits(m.nodeAt({2, 1})), 0b0111);
  // Restoring the link restores both bits.
  topo.setLinkDead(m.nodeAt({1, 1}), Dir::East, false);
  topo.recompute();
  EXPECT_FALSE(topo.active());
  EXPECT_EQ(topo.connectivityBits(m.nodeAt({1, 1})), 0b1111);
  EXPECT_EQ(topo.connectivityBits(m.nodeAt({2, 1})), 0b1111);
}

TEST(Lbdr, ValidMappingDoesNotImplyMcReachabilityUnderFaults) {
  Mesh m(4, 4);
  const auto quads = RegionMap::quadrants(m);
  const auto mcs = m.cornerNodes();
  ASSERT_TRUE(lbdrMappingValid(quads, mcs));

  // Isolate corner 0 — region 0's only MC.
  RoutingTables topo(m);
  for (int d = 1; d < kNumPorts; ++d)
    if (m.neighbor(0, static_cast<Dir>(d)))
      topo.setLinkDead(0, static_cast<Dir>(d), true);
  topo.recompute();
  EXPECT_EQ(topo.connectivityBits(0), 0);

  // The mapping check is a static placement property and still passes;
  // reachability under faults is the fault layer's concern, which is why
  // unreachable traffic drains through the accounted drop bucket instead
  // of asserting inside LBDR.
  EXPECT_TRUE(lbdrMappingValid(quads, mcs));
  for (NodeId n = 1; n < m.numNodes(); ++n)
    EXPECT_FALSE(topo.reachable(n, 0)) << "node " << n;
  EXPECT_EQ(topo.unreachablePairs(), 2u * 15u);
}

TEST(Lbdr, LegalPacketMayBecomeUnreachableUnderDegradation) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  const NodeId src = m.nodeAt({0, 0});
  const NodeId dst = m.nodeAt({3, 7});
  ASSERT_TRUE(lbdrPacketAllowed(rm, src, dst));

  RoutingTables topo(m);
  for (int d = 1; d < kNumPorts; ++d)
    if (m.neighbor(dst, static_cast<Dir>(d)))
      topo.setLinkDead(dst, static_cast<Dir>(d), true);
  topo.recompute();

  // Static legality is unchanged; the degraded graph decides delivery.
  EXPECT_TRUE(lbdrPacketAllowed(rm, src, dst));
  EXPECT_FALSE(topo.reachable(src, dst));
  EXPECT_EQ(topo.distance(src, dst), -1);
}

}  // namespace
}  // namespace rair

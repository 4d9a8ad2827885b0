// The side-band congestion-information network: local free-VC counts and
// their one-hop-per-cycle aggregation (what DBAR's selection consumes).
#include <gtest/gtest.h>

#include "policy/policy.h"
#include "sim/network.h"
#include "sim_test_util.h"

namespace rair {
namespace {

NetworkConfig cfg() {
  NetworkConfig c;
  c.vcsPerClass = 5;  // 1 escape + 4 adaptive
  return c;
}

TEST(CongestionInfo, IdleNetworkReportsAllAdaptiveVcsFree) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  const NodeId center = m.nodeAt({1, 1});
  for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West})
    EXPECT_EQ(net.freeVcsThrough(center, d), 4);
}

TEST(CongestionInfo, EdgePortsReportZero) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({0, 0}), Dir::North), 0);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({0, 0}), Dir::West), 0);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({3, 3}), Dir::East), 0);
  EXPECT_EQ(net.freeVcsThrough(m.nodeAt({3, 3}), Dir::South), 0);
}

TEST(CongestionInfo, AggregationNeedsPropagationTime) {
  Mesh m(8, 1);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  // Before any cycle, the aggregate tables hold zeros.
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 3), 0);
  // After one cycle only the 1-hop term is live (4 free VCs); the deeper
  // terms still add stale zeros from neighbors.
  testutil::referenceStep(net, 0);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 1), 4);
  // After h cycles, an h-hop horizon is fully populated: 4 per hop.
  for (Cycle t = 1; t < 5; ++t) testutil::referenceStep(net, t);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 1), 4);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 2), 8);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 3), 12);
  EXPECT_EQ(net.aggregatedFree(0, Dir::East, 5), 20);
}

TEST(CongestionInfo, HorizonClampsAtMeshEdge) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  for (Cycle t = 0; t < 6; ++t) testutil::referenceStep(net, t);
  // From (1,1) eastward only 2 more routers exist; a huge horizon is
  // clamped to the stored maximum (width-1 = 3 hops), and hops beyond the
  // edge contribute nothing.
  const NodeId n = m.nodeAt({1, 1});
  const int h3 = net.aggregatedFree(n, Dir::East, 3);
  EXPECT_EQ(net.aggregatedFree(n, Dir::East, 99), h3);
  // 1 hop past (2,1), 2 hops past (3,1): 4 + 4 + 0 (edge) = 8... the
  // 3-hop aggregate counts ports (1,1)E, (2,1)E, (3,1)E; the last is an
  // edge port contributing 0.
  EXPECT_EQ(h3, 8);
}

TEST(CongestionInfo, OccupiedVcsReduceTheCount) {
  // Push traffic through one column and verify the reported free counts
  // drop at the loaded ports.
  Mesh m(4, 1);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Network net(m, rm, cfg(), RoutingKind::LocalAdaptive, policy);
  // Inject long packets from node 0 toward node 3 and stall them by
  // keeping the NIC at node 3 busy — simplest: observe counts drop while
  // flits are in flight.
  Packet p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;
  p.app = 0;
  p.numFlits = 5;
  net.nic(0).enqueue(p);
  Packet q = p;
  q.id = 2;
  net.nic(0).enqueue(q);
  bool dipped = false;
  for (Cycle t = 0; t < 20; ++t) {
    testutil::referenceStep(net, t);
    if (net.freeVcsThrough(0, Dir::East) < 4) dipped = true;
  }
  EXPECT_TRUE(dipped) << "in-flight packets never occupied an output VC";
  // After draining, everything is free again.
  for (Cycle t = 20; t < 60; ++t) testutil::referenceStep(net, t);
  EXPECT_EQ(net.freeVcsThrough(0, Dir::East), 4);
  EXPECT_TRUE(net.quiescent());
}

}  // namespace
}  // namespace rair

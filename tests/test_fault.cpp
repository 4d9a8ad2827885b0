// Fault subsystem: plan round-trips, degraded-topology routing tables,
// byte-identity of fault-free runs with an (empty-plan) injector attached,
// the oracle holding through every fault kind, drop accounting under
// partition, and snapshot stability of mid-outage state across shard
// thread counts (including checkpoint resume).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "check/fuzz.h"
#include "check/oracle.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fault/random_plan.h"
#include "routing/tables.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "snapshot/buffer.h"
#include "snapshot/scenario_key.h"
#include "snapshot/state_file.h"
#include "sim_test_util.h"

namespace rair {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

/// Same calibrated constant as test_equivalence.cpp / test_shard_*.cpp.
constexpr double kHalfSat = 0.38195418397913583;

ScenarioSpec fig09Spec(const Mesh& mesh, const RegionMap& regions, double p,
                       const SchemeSpec& scheme, std::uint64_t seed) {
  return ScenarioSpec(mesh, regions)
      .withScheme(scheme)
      .withApps(scenarios::twoAppInterRegion(
          p, scenarios::kLowLoadFraction * kHalfSat,
          scenarios::kHighLoadFraction * kHalfSat))
      .withSeed(seed)
      .withFastWindows();
}

// ---- Plan round-trips -----------------------------------------------------

FaultPlan samplePlan() {
  FaultPlan plan;
  plan.linkOutage(100, 5, Dir::East, 250);
  plan.portStall(40, 3, Dir::North, 60);
  plan.injectFreeze(200, 7, 80);
  plan.creditLoss(150, 2, Dir::West, 1, 2);
  plan.softReset(300, 6, 120);
  plan.add({500, FaultKind::LinkDown, 9, Dir::South, 0, 1});  // permanent
  return plan;
}

TEST(FaultPlan, TextFormatRoundTrips) {
  const FaultPlan plan = samplePlan();
  FaultPlan back;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(plan.format(), back, &err)) << err;
  EXPECT_EQ(plan, back);
}

TEST(FaultPlan, ParseRejectsMalformedLinesWithAnError) {
  FaultPlan out;
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("@12 explode 3 N\n", out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(FaultPlan::parse("down 3 N\n", out, &err));  // missing @cycle
}

TEST(FaultPlan, ParseIgnoresBlankLinesAndComments) {
  FaultPlan out;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("# a comment\n\n@5 down 1 E\n", out, &err))
      << err;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.events()[0].kind, FaultKind::LinkDown);
  EXPECT_EQ(out.events()[0].at, 5u);
}

TEST(FaultPlan, BinaryEncodingRoundTrips) {
  const FaultPlan plan = samplePlan();
  snapshot::Writer w;
  plan.encode(w);
  snapshot::Reader r(w.payload());
  EXPECT_EQ(FaultPlan::decode(r), plan);
  EXPECT_TRUE(r.atEnd());
}

TEST(FaultPlan, ResetDurationSugarExpandsToRecover) {
  FaultPlan out;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("@10 reset 3 50\n", out, &err)) << err;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.events()[0].kind, FaultKind::Reset);
  EXPECT_EQ(out.events()[0].at, 10u);
  EXPECT_EQ(out.events()[1].kind, FaultKind::Recover);
  EXPECT_EQ(out.events()[1].at, 60u);
  EXPECT_EQ(out.events()[1].node, 3);

  // The bare one-event forms parse too, and a zero duration is rejected.
  ASSERT_TRUE(FaultPlan::parse("@10 reset 3\n@60 recover 3\n", out, &err))
      << err;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(FaultPlan::parse("@10 reset 3 0\n", out, &err));
}

TEST(FaultPlan, EventsStaySortedByCycle) {
  const FaultPlan plan = samplePlan();
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_LE(plan.events()[i - 1].at, plan.events()[i].at);
}

// ---- Degraded-topology routing tables -------------------------------------

TEST(DegradedTopology, SingleDeadLinkKeepsMeshConnected) {
  Mesh mesh(4, 4);
  RoutingTables deg(mesh);
  EXPECT_FALSE(deg.active());

  // Kill the channel between (1,1) and (2,1).
  const NodeId a = mesh.nodeAt({1, 1});
  deg.setLinkDead(a, Dir::East, true);
  deg.recompute();
  ASSERT_TRUE(deg.active());
  EXPECT_EQ(deg.numDeadLinks(), 1);
  EXPECT_FALSE(deg.linkAlive(a, Dir::East));
  EXPECT_FALSE(deg.linkAlive(mesh.nodeAt({2, 1}), Dir::West));

  // One missing link leaves a 4x4 mesh fully connected.
  EXPECT_EQ(deg.unreachablePairs(), 0u);
  for (NodeId n = 0; n < mesh.numNodes(); ++n)
    EXPECT_EQ(deg.componentOf(n), deg.componentOf(0));

  // Distances detour around the cut: a -> East neighbor is now 3 hops.
  EXPECT_EQ(deg.distance(a, mesh.nodeAt({2, 1})), 3);

  // Escape routing never crosses the dead channel and always decreases
  // the tree distance toward the destination.
  for (NodeId src = 0; src < mesh.numNodes(); ++src) {
    for (NodeId dst = 0; dst < mesh.numNodes(); ++dst) {
      if (src == dst) continue;
      const Dir d = deg.escapeDir(src, dst);
      EXPECT_TRUE(deg.linkAlive(src, d)) << "src=" << src << " dst=" << dst;
    }
  }

  // Adaptive candidates are distance-decreasing on the degraded graph.
  const RouteResult rr = deg.routeFor(a, mesh.nodeAt({3, 1}));
  ASSERT_GT(rr.numAdaptive, 0);
  for (int i = 0; i < rr.numAdaptive; ++i) {
    const Dir d = rr.adaptiveDirs[static_cast<std::size_t>(i)];
    ASSERT_TRUE(deg.linkAlive(a, d));
    EXPECT_EQ(deg.distance(*mesh.neighbor(a, d), mesh.nodeAt({3, 1})),
              deg.distance(a, mesh.nodeAt({3, 1})) - 1);
  }

  // Restoring the link fully deactivates the tables.
  deg.setLinkDead(a, Dir::East, false);
  deg.recompute();
  EXPECT_FALSE(deg.active());
  EXPECT_EQ(deg.unreachablePairs(), 0u);
}

TEST(DegradedTopology, ConnectivityBitsReflectDeadLinks) {
  Mesh mesh(3, 3);
  RoutingTables deg(mesh);
  const NodeId center = mesh.nodeAt({1, 1});
  const std::uint8_t before = deg.connectivityBits(center);
  EXPECT_EQ(before, 0b1111);  // all four links of the center node alive

  deg.setLinkDead(center, Dir::North, true);
  deg.recompute();
  EXPECT_EQ(deg.connectivityBits(center), before & ~0b0001);
  // Corner (0,0) keeps its two links.
  const int popcount =
      __builtin_popcount(deg.connectivityBits(mesh.nodeAt({0, 0})));
  EXPECT_EQ(popcount, 2);
}

TEST(DegradedTopology, CutIsolatingACornerPartitionsTheMesh) {
  Mesh mesh(2, 2);
  RoutingTables deg(mesh);
  // Kill both links of node (0,0): the mesh splits {corner} | {rest}.
  const NodeId corner = mesh.nodeAt({0, 0});
  for (int d = 1; d < kNumPorts; ++d) {
    if (mesh.neighbor(corner, static_cast<Dir>(d)))
      deg.setLinkDead(corner, static_cast<Dir>(d), true);
  }
  deg.recompute();
  ASSERT_TRUE(deg.active());
  EXPECT_EQ(deg.numDeadLinks(), 2);

  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    EXPECT_EQ(deg.reachable(corner, n), n == corner);
  }
  // Ordered pairs between the two components: 1 * 3 * 2.
  EXPECT_EQ(deg.unreachablePairs(), 6u);
  EXPECT_EQ(deg.distance(corner, mesh.nodeAt({1, 1})), -1);
}

TEST(DegradedTopology, RoutingAlgorithmBypassesInactiveTables) {
  Mesh mesh(4, 4);
  RoutingTables deg(mesh);
  XyRouting xy;
  Packet p;
  p.id = 1;
  p.src = mesh.nodeAt({0, 0});
  p.dst = mesh.nodeAt({3, 2});
  p.numFlits = 1;
  const Flit head = makeFlit(p, 0);

  const RouteResult plain = xy.computeCandidates(mesh, head.src, head);
  xy.setDegraded(&deg);
  const RouteResult attached = xy.computeCandidates(mesh, head.src, head);
  EXPECT_EQ(plain.escapeDir, attached.escapeDir);
  EXPECT_EQ(plain.numAdaptive, attached.numAdaptive);

  // Once a link dies, candidates come from the degraded tables.
  deg.setLinkDead(mesh.nodeAt({0, 0}), Dir::East, true);
  deg.recompute();
  const RouteResult rerouted = xy.computeCandidates(mesh, head.src, head);
  EXPECT_TRUE(deg.linkAlive(head.src, rerouted.escapeDir));
  EXPECT_NE(rerouted.escapeDir, Dir::East);
}

// ---- Fault-free byte-identity with an injector attached --------------------

std::vector<std::uint8_t> serializedAfter(const ScenarioSpec& spec,
                                          Cycle cycles, bool emptyInjector) {
  AssembledScenario as = assembleScenario(spec);
  fault::FaultInjector idle(*as.sim, FaultPlan{});
  if (emptyInjector) idle.attach();  // assembleScenario skips empty plans
  as.sim->begin();
  while (as.sim->now() < cycles) as.sim->stepCycle();
  snapshot::Writer w;
  as.sim->save(w);
  return w.payload();
}

TEST(FaultGolden, EmptyPlanInjectorIsByteInvisible) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 17911839290282890590ull);
  const auto plain = serializedAfter(spec, 3000, false);
  const auto armed = serializedAfter(spec, 3000, true);
  EXPECT_TRUE(plain == armed);
  const auto armedSharded =
      serializedAfter(ScenarioSpec(spec).withThreads(4), 3000, true);
  EXPECT_TRUE(plain == armedSharded);
}

// ---- The oracle holds through every fault kind -----------------------------

/// Runs `spec` (manually assembled) to completion under a collecting
/// oracle that has been made fault-aware, and returns (report, result).
struct AuditedRun {
  check::OracleReport report;
  RunResult run;
  std::uint64_t droppedByFault = 0;
  fault::FaultStats stats;
};

AuditedRun runAudited(const ScenarioSpec& spec) {
  AssembledScenario as = assembleScenario(spec);
  check::OracleOptions oo;
  oo.period = 1;
  oo.deadlockPeriod = 64;
  oo.maxInNetworkAge = 20'000;
  oo.failFast = false;
  check::NetworkOracle oracle(as.sim->network(), as.sim->ledger(), oo);
  if (as.injector) oracle.attachFaults(as.injector.get());
  as.sim->observers().attach(&oracle);
  AuditedRun out;
  out.run = as.sim->run();
  oracle.finish(out.run.cyclesRun);
  out.report = oracle.report();
  out.droppedByFault = as.sim->droppedByFault();
  if (as.injector) out.stats = as.injector->stats();
  return out;
}

ScenarioSpec smallSpec(const Mesh& mesh, const RegionMap& regions,
                       const SchemeSpec& scheme) {
  return fig09Spec(mesh, regions, 0.5, scheme, 0xFA11ull);
}

// The kind is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would make the listed test name change
// from one process launch to the next.
class FaultKindOracle
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FaultKindOracle, NoViolationsAndAllDropsAccounted) {
  const std::string kind = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);

  FaultPlan plan;
  const NodeId mid = mesh.nodeAt({1, 1});
  if (kind == "outage") {
    plan.linkOutage(2'500, mid, Dir::East, 400);
  } else if (kind == "permanent") {
    plan.add({2'500, FaultKind::LinkDown, mid, Dir::East, 0, 1});
  } else if (kind == "stall") {
    plan.portStall(2'500, mid, Dir::East, 300);
  } else if (kind == "creditloss") {
    plan.creditLoss(2'500, mid, Dir::East, 1, 1);  // adaptive VC
  } else if (kind == "reset") {
    plan.softReset(2'500, mid, 300);
  } else {
    ASSERT_EQ(kind, "freeze");
    plan.injectFreeze(2'500, mid, 300);
  }

  for (const auto& scheme : {schemeRoRr(), schemeRaRair()}) {
    const AuditedRun r = runAudited(smallSpec(mesh, regions, scheme)
                                        .withFaults(plan)
                                        .withThreads(threads));
    EXPECT_TRUE(r.report.ok()) << scheme.label << ": "
                               << (r.report.violations.empty()
                                       ? "?"
                                       : r.report.violations[0].what);
    EXPECT_EQ(r.run.termination, Termination::Drained) << scheme.label;
    // Flit/packet conservation itself is the oracle's census (checked
    // above); here only the weaker arithmetic sanity holds, because
    // sources keep creating packets during the drain window.
    EXPECT_LE(r.run.packetsDelivered + r.droppedByFault,
              r.run.packetsCreated)
        << scheme.label;
    EXPECT_GT(r.stats.eventsApplied, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FaultKindOracle,
    ::testing::Combine(::testing::Values("outage", "permanent", "stall",
                                         "creditloss", "freeze", "reset"),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FaultOracle, Fig09CellCleanUnderOutageAtEveryThreadCount) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  FaultPlan plan;
  plan.linkOutage(3'000, mesh.nodeAt({3, 3}), Dir::East, 2'000);
  plan.portStall(5'000, mesh.nodeAt({5, 2}), Dir::South, 500);

  const ScenarioSpec base =
      fig09Spec(mesh, regions, 0.0, schemeRoRr(), 10451216379200822465ull)
          .withFaults(plan);
  const AuditedRun ref = runAudited(base);
  EXPECT_TRUE(ref.report.ok())
      << (ref.report.violations.empty() ? "?"
                                        : ref.report.violations[0].what);
  EXPECT_EQ(ref.run.termination, Termination::Drained);
  EXPECT_LE(ref.run.packetsDelivered + ref.droppedByFault,
            ref.run.packetsCreated);
  // The outage lasted exactly 2000 cycles, applied as one down/up pair.
  EXPECT_EQ(ref.stats.eventsApplied, 4u);
  EXPECT_EQ(ref.stats.degradedCycles, 2'000u);
  EXPECT_EQ(ref.stats.recoveryCycles, 2'000u);
  EXPECT_EQ(ref.stats.unreachablePairs, 0u);  // 8x8 stays connected

  // Byte-identical trajectory on the sharded engine.
  const AuditedRun t4 = runAudited(ScenarioSpec(base).withThreads(4));
  EXPECT_TRUE(t4.report.ok());
  EXPECT_EQ(t4.run.cyclesRun, ref.run.cyclesRun);
  EXPECT_EQ(t4.run.packetsCreated, ref.run.packetsCreated);
  EXPECT_EQ(t4.run.packetsDelivered, ref.run.packetsDelivered);
  EXPECT_EQ(t4.droppedByFault, ref.droppedByFault);
  EXPECT_EQ(t4.stats, ref.stats);
}

TEST(FaultOracle, SoftResetOnRetxLayerIsCleanAndThreadInvariant) {
  // Under retx a reset drops only in-router state: neighbors' replay
  // buffers hold in-flight flits and redeliver them after recovery, and
  // committed streams stall against exhausted credits instead of dying.
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  FaultPlan plan;
  plan.softReset(2'500, mesh.nodeAt({1, 1}), 400);

  const ScenarioSpec base = smallSpec(mesh, regions, schemeRaRair())
                                .withFaults(plan)
                                .withLinkLayer(LinkLayerKind::Retx);
  const AuditedRun ref = runAudited(base);
  EXPECT_TRUE(ref.report.ok())
      << (ref.report.violations.empty() ? "?"
                                        : ref.report.violations[0].what);
  EXPECT_EQ(ref.run.termination, Termination::Drained);
  EXPECT_EQ(ref.stats.softResets, 1u);
  EXPECT_EQ(ref.stats.degradedCycles, 400u);
  // Receiver-down drops count as corrupted arrivals; the post-recovery
  // go-back replays them.
  EXPECT_GT(ref.stats.corruptedFlits, 0u);
  EXPECT_GT(ref.stats.retransmittedFlits, 0u);
  EXPECT_LE(ref.run.packetsDelivered + ref.droppedByFault,
            ref.run.packetsCreated);

  // Identical drop/retransmit totals on more shard threads.
  for (const int threads : {2, 4}) {
    const AuditedRun t = runAudited(ScenarioSpec(base).withThreads(threads));
    EXPECT_TRUE(t.report.ok()) << "threads=" << threads;
    EXPECT_EQ(t.run.cyclesRun, ref.run.cyclesRun) << threads;
    EXPECT_EQ(t.run.packetsDelivered, ref.run.packetsDelivered) << threads;
    EXPECT_EQ(t.droppedByFault, ref.droppedByFault) << threads;
    EXPECT_EQ(t.stats, ref.stats) << "threads=" << threads;
  }
}

// ---- Drop accounting under partition ---------------------------------------

TEST(FaultDrops, IsolatedCornerDrainsThroughTheAccountedBucket) {
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  // Permanently cut every link of corner (0,0) mid-measurement.
  FaultPlan plan;
  const NodeId corner = mesh.nodeAt({0, 0});
  for (int d = 1; d < kNumPorts; ++d) {
    if (mesh.neighbor(corner, static_cast<Dir>(d)))
      plan.add({4'000, FaultKind::LinkDown, corner, static_cast<Dir>(d), 0,
                1});
  }

  const ScenarioSpec spec =
      smallSpec(mesh, regions, schemeRaRair()).withFaults(plan);
  const AuditedRun r = runAudited(spec);
  EXPECT_TRUE(r.report.ok())
      << (r.report.violations.empty() ? "?" : r.report.violations[0].what);
  EXPECT_EQ(r.run.termination, Termination::Drained);
  EXPECT_GT(r.droppedByFault, 0u);
  EXPECT_LE(r.run.packetsDelivered + r.droppedByFault,
            r.run.packetsCreated);
  // Ordered pairs across the {corner} | {15 nodes} split.
  EXPECT_EQ(r.stats.unreachablePairs, 30u);
  EXPECT_GT(r.stats.degradedCycles, 0u);
  EXPECT_EQ(r.stats.recoveryCycles, 0u);  // never restored
  EXPECT_EQ(r.stats.droppedPackets, r.droppedByFault);
}

// ---- Mid-outage snapshot stability -----------------------------------------

ScenarioSpec midOutageSpec(const Mesh& mesh, const RegionMap& regions) {
  // Down at 2000, still down at the 3000-cycle observation point, up at
  // 5000 — the serialized state carries a live outage plus pending events.
  FaultPlan plan;
  plan.linkOutage(2'000, mesh.nodeAt({3, 3}), Dir::East, 3'000);
  plan.portStall(2'600, mesh.nodeAt({1, 5}), Dir::North, 1'000);
  plan.creditLoss(2'200, mesh.nodeAt({5, 5}), Dir::West, 1, 1);
  return fig09Spec(mesh, regions, 0.5, schemeRaRair(),
                   17911839290282890590ull)
      .withFaults(plan);
}

// The reconfiguration-engine contract (DESIGN.md §5e): the incremental
// repair path must be byte-invisible — campaign records and snapshot
// bytes identical to a from-scratch rebuild after every event — on
// fault-free and faulted cells alike, at every shard-thread count.
TEST(FaultGolden, IncrementalRecomputeIsByteInvisible) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec faultFree =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 17911839290282890590ull);
  const ScenarioSpec faulted = midOutageSpec(mesh, regions);

  for (const ScenarioSpec* spec : {&faultFree, &faulted}) {
    RoutingTables::forceFullRebuildForTest = true;
    const auto full = serializedAfter(*spec, 3'000, false);
    RoutingTables::forceFullRebuildForTest = false;
    const auto incremental = serializedAfter(*spec, 3'000, false);
    EXPECT_TRUE(full == incremental);
    for (const int threads : {2, 4}) {
      const auto sharded = serializedAfter(
          ScenarioSpec(*spec).withThreads(threads), 3'000, false);
      EXPECT_TRUE(full == sharded) << "threads=" << threads;
    }
  }
}

TEST(FaultSnapshot, MidOutageStateIsByteStableAcrossShardThreadCounts) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = midOutageSpec(mesh, regions);
  const auto t1 = serializedAfter(spec, 3'000, false);
  for (const int threads : {2, 4}) {
    const auto sharded =
        serializedAfter(ScenarioSpec(spec).withThreads(threads), 3'000,
                        false);
    EXPECT_TRUE(t1 == sharded) << "threads=" << threads;
  }
}

TEST(FaultSnapshot, MidOutageCheckpointResumeMatchesStraightRun) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = midOutageSpec(mesh, regions);

  const ScenarioResult straight = runScenario(spec);
  ASSERT_TRUE(straight.faultStats.has_value());

  const std::string dir = ::testing::TempDir() + "rair_fault_mid";
  const std::string path = testutil::checkpointPath(dir, spec);
  snapshot::removeFile(path);
  // 3000 is inside the outage: the checkpoint carries dead links, the
  // lost-credit ledger and a pending stall release.
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 3'000, path));

  // Resume on a different thread count than the straight run.
  const ScenarioResult resumed =
      runScenario(testutil::checkpointingIn(spec, dir).withThreads(4));
  EXPECT_EQ(resumed.resumedFromCycle, 3'000u);
  EXPECT_EQ(resumed.run.cyclesRun, straight.run.cyclesRun);
  EXPECT_EQ(resumed.run.packetsCreated, straight.run.packetsCreated);
  EXPECT_EQ(resumed.run.packetsDelivered, straight.run.packetsDelivered);
  EXPECT_EQ(resumed.meanApl, straight.meanApl);
  EXPECT_EQ(resumed.appApl, straight.appApl);
  ASSERT_TRUE(resumed.faultStats.has_value());
  EXPECT_EQ(*resumed.faultStats, *straight.faultStats);
  snapshot::removeFile(path);
}

ScenarioSpec midResetSpec(const Mesh& mesh, const RegionMap& regions) {
  // Reset at 2000, still down at the 3000-cycle observation point,
  // recovered at 5000 — the serialized state carries the in-reset node,
  // receiver-down link flags, tombstoned replay entries and the pending
  // Recover event.
  FaultPlan plan;
  plan.softReset(2'000, mesh.nodeAt({3, 3}), 3'000);
  plan.corruptFlits(2'600, mesh.nodeAt({1, 5}), Dir::North, 4);
  return fig09Spec(mesh, regions, 0.5, schemeRaRair(),
                   17911839290282890590ull)
      .withFaults(plan)
      .withLinkLayer(LinkLayerKind::Retx);
}

TEST(FaultSnapshot, MidResetStateIsByteStableAcrossShardThreadCounts) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = midResetSpec(mesh, regions);
  const auto t1 = serializedAfter(spec, 3'000, false);
  for (const int threads : {2, 4}) {
    const auto sharded =
        serializedAfter(ScenarioSpec(spec).withThreads(threads), 3'000,
                        false);
    EXPECT_TRUE(t1 == sharded) << "threads=" << threads;
  }
}

TEST(FaultSnapshot, MidResetCheckpointResumeMatchesStraightRun) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = midResetSpec(mesh, regions);

  const ScenarioResult straight = runScenario(spec);
  ASSERT_TRUE(straight.faultStats.has_value());
  EXPECT_EQ(straight.faultStats->softResets, 1u);

  const std::string dir = ::testing::TempDir() + "rair_fault_reset";
  const std::string path = testutil::checkpointPath(dir, spec);
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 3'000, path));

  const ScenarioResult resumed =
      runScenario(testutil::checkpointingIn(spec, dir).withThreads(4));
  EXPECT_EQ(resumed.resumedFromCycle, 3'000u);
  EXPECT_EQ(resumed.run.cyclesRun, straight.run.cyclesRun);
  EXPECT_EQ(resumed.run.packetsCreated, straight.run.packetsCreated);
  EXPECT_EQ(resumed.run.packetsDelivered, straight.run.packetsDelivered);
  EXPECT_EQ(resumed.meanApl, straight.meanApl);
  ASSERT_TRUE(resumed.faultStats.has_value());
  EXPECT_EQ(*resumed.faultStats, *straight.faultStats);
  snapshot::removeFile(path);
}

TEST(FaultSnapshot, DbarRetxCheckpointResumesOnFourThreads) {
  // RA_DBAR reads the congestion history, which a snapshot carries as the
  // history ring itself. A checkpoint written mid-run on one shard thread,
  // with corruption on retx links, resumes on four to the straight run's
  // result, and save -> restore -> save is byte-stable.
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  FaultPlan plan;
  plan.corruptFlits(1'500, mesh.nodeAt({2, 3}), Dir::East, 6);
  plan.corruptFlits(2'600, mesh.nodeAt({5, 4}), Dir::West, 4);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.5, schemeRaDbar(), 17911839290282890590ull)
          .withFaults(plan)
          .withLinkLayer(LinkLayerKind::Retx);

  const ScenarioResult straight = runScenario(spec);
  ASSERT_TRUE(straight.faultStats.has_value());
  EXPECT_GT(straight.faultStats->corruptedFlits, 0u);

  const std::string dir = ::testing::TempDir() + "rair_fault_dbar";
  const std::string path = testutil::checkpointPath(dir, spec);
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 3'000, path));
  const ScenarioResult resumed =
      runScenario(testutil::checkpointingIn(spec, dir).withThreads(4));
  EXPECT_EQ(resumed.resumedFromCycle, 3'000u);
  EXPECT_EQ(resumed.run.cyclesRun, straight.run.cyclesRun);
  EXPECT_EQ(resumed.run.packetsCreated, straight.run.packetsCreated);
  EXPECT_EQ(resumed.run.packetsDelivered, straight.run.packetsDelivered);
  EXPECT_EQ(resumed.meanApl, straight.meanApl);
  EXPECT_EQ(resumed.appApl, straight.appApl);
  ASSERT_TRUE(resumed.faultStats.has_value());
  EXPECT_EQ(*resumed.faultStats, *straight.faultStats);
  snapshot::removeFile(path);

  const auto saved = serializedAfter(spec, 3'000, false);
  AssembledScenario other = assembleScenario(spec);
  snapshot::Reader r(saved);
  other.sim->restore(r);
  EXPECT_TRUE(r.atEnd());
  snapshot::Writer w;
  other.sim->save(w);
  EXPECT_TRUE(w.payload() == saved);
}

/// Every router of `b` reports the same OVC_n/OVC_f occupancy registers
/// and free adaptive output VCs per port as the same router of `a`.
void expectSameRouterAggregates(const Network& a, const Network& b) {
  for (NodeId n = 0; n < a.mesh().numNodes(); ++n) {
    const RouterOccupancy oa = a.router(n).occupancy();
    const RouterOccupancy ob = b.router(n).occupancy();
    EXPECT_EQ(oa.nativeOccupiedVcs, ob.nativeOccupiedVcs) << "node " << n;
    EXPECT_EQ(oa.foreignOccupiedVcs, ob.foreignOccupiedVcs) << "node " << n;
    for (int p = 0; p < kNumPorts; ++p) {
      const Dir d = static_cast<Dir>(p);
      EXPECT_EQ(a.router(n).freeAdaptiveOutVcs(d),
                b.router(n).freeAdaptiveOutVcs(d))
          << "node " << n << " port " << p;
    }
  }
}

/// One full oracle scan of `as` at its current cycle must find nothing.
void expectOracleClean(const AssembledScenario& as) {
  check::OracleOptions oo;
  oo.failFast = false;
  check::NetworkOracle oracle(as.sim->network(), as.sim->ledger(), oo);
  oracle.attachFaults(as.injector.get());
  oracle.scanNow(as.sim->now());
  EXPECT_TRUE(oracle.report().ok()) << oracle.report().summary();
}

TEST(FaultSnapshot, RestoredRouterAggregatesMatchTheSource) {
  // A snapshot carries no router aggregate: restore recounts them from
  // the VC state. Non-atomic VCs on retx links, taken mid soft reset and
  // restored into a freshly assembled simulator, must read the source's
  // registers and pass the oracle's independent recount — at the restore
  // and again right after the reset's recovery repairs the topology.
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  ScenarioSpec spec = midResetSpec(mesh, regions);
  spec.config.net.atomicVcs = false;

  AssembledScenario source = assembleScenario(spec);
  source.sim->begin();
  while (source.sim->now() < 3'000) source.sim->stepCycle();
  ASSERT_EQ(source.injector->stats().softResets, 1u);
  int occupied = 0;
  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    const RouterOccupancy o = source.sim->network().router(n).occupancy();
    occupied += o.nativeOccupiedVcs + o.foreignOccupiedVcs;
  }
  EXPECT_GT(occupied, 0) << "the snapshot holds no buffered traffic";
  snapshot::Writer w;
  source.sim->save(w);

  AssembledScenario restored = assembleScenario(spec);
  snapshot::Reader r(w.payload());
  restored.sim->restore(r);
  EXPECT_TRUE(r.atEnd());
  expectSameRouterAggregates(source.sim->network(), restored.sim->network());
  expectOracleClean(restored);

  const Cycle resetRepair = source.injector->lastTopologyChange();
  while (restored.injector->lastTopologyChange() == resetRepair) {
    ASSERT_LT(restored.sim->now(), 6'000u) << "the reset never recovered";
    source.sim->stepCycle();
    restored.sim->stepCycle();
  }
  EXPECT_EQ(source.injector->lastTopologyChange(),
            restored.injector->lastTopologyChange());
  expectSameRouterAggregates(source.sim->network(), restored.sim->network());
  expectOracleClean(source);
  expectOracleClean(restored);
}

TEST(FaultSnapshot, PlanEntersTheScenarioKey) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec plain =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 1);
  FaultPlan plan;
  plan.linkOutage(2'000, 5, Dir::East, 100);
  const ScenarioSpec faulted = ScenarioSpec(plain).withFaults(plan);
  EXPECT_NE(snapshot::warmStateKey(plain), snapshot::warmStateKey(faulted));
  EXPECT_NE(snapshot::fullStateKey(plain), snapshot::fullStateKey(faulted));
}

// ---- Fuzz harness fault mode ----------------------------------------------

TEST(FaultFuzz, GeneratedPlansAreValidAndDrainClean) {
  check::FuzzOptions opts;
  opts.scenarios = 8;
  opts.faultPlan = true;
  opts.seed = 42;
  std::set<std::uint64_t> seeds;
  const check::FuzzSummary sum = check::runFuzz(
      opts, [&](int, const check::FuzzCaseResult& res) {
        seeds.insert(res.caseSeed);
      });
  EXPECT_EQ(sum.failures, 0);
  ASSERT_EQ(seeds.size(), 8u);
  int twins = 0;
  for (const std::uint64_t s : seeds)
    twins += check::parsecTwin(s, check::generateCase(s)).has_value();
  EXPECT_EQ(sum.casesRun, 2 * (8 + twins));  // (cases + twins) x 2 schemes
}

TEST(FaultFuzz, PlanGenerationIsDeterministic) {
  const check::FuzzCase c = check::generateCase(7);
  const FaultPlan a = check::generateFaultPlan(7, c);
  const FaultPlan b = check::generateFaultPlan(7, c);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// ---- Plan legality (fault::checkPlan) -------------------------------------

TEST(FaultPlanCheck, NamesTheFirstIllegalEvent) {
  const Mesh mesh(8, 8);
  NetworkConfig ideal;  // one class of 5 VCs on ideal links
  NetworkConfig retx = ideal;
  retx.linkLayer = LinkLayerKind::Retx;
  const auto check = [&](const char* text, const NetworkConfig& net) {
    FaultPlan plan;
    EXPECT_TRUE(FaultPlan::parse(text, plan)) << text;
    return fault::checkPlan(plan, mesh, net);
  };
  EXPECT_EQ(check("@5000 down 27 E\n@8000 up 27 E\n", ideal), "");
  EXPECT_EQ(check("@5000 down 999 E\n", ideal),
            "event '@5000 down 999 E': node 999 is outside the 8x8 mesh");
  EXPECT_EQ(check("@5000 down 7 E\n", ideal),
            "event '@5000 down 7 E': the link does not exist");
  EXPECT_EQ(check("@5000 down 27 E\n", retx),
            "event '@5000 down 27 E': link outages require the ideal link "
            "layer");
  EXPECT_EQ(check("@5000 corrupt 27 E 4\n", retx), "");
  EXPECT_EQ(check("@5000 corrupt 27 E 4\n", ideal),
            "event '@5000 corrupt 27 E 4': corrupt events require the retx "
            "link layer (--link-layer retx)");
  EXPECT_EQ(check("@5000 creditloss 3 E 40 1\n", ideal),
            "event '@5000 creditloss 3 E 40 1': VC 40 is outside the "
            "layout's 5 VCs");
  EXPECT_EQ(check("@5000 reset 3\n@6000 reset 3\n", ideal),
            "event '@6000 reset 3': the node is already in reset");
  EXPECT_EQ(check("@5000 reset 3 100\n@6000 reset 3 100\n", retx), "");
  // An unrecovered reset is a node outage on ideal links, but stalls the
  // retx neighbors forever.
  EXPECT_EQ(check("@5000 reset 3\n", ideal), "");
  EXPECT_EQ(check("@5000 reset 3\n", retx),
            "event '@5000 reset 3': retx-layer soft resets must recover "
            "before the plan ends (stalled neighbors would never drain)");
}

TEST(FaultPlanCheck, GeneratedAndCannedPlansAreLegal) {
  // The shared generator, in both sampling modes and both families.
  const Mesh mesh(8, 8);
  for (const LinkLayerKind layer : {LinkLayerKind::Ideal, LinkLayerKind::Retx}) {
    NetworkConfig net;
    net.linkLayer = layer;
    for (const Cycle mtbf : {Cycle{0}, Cycle{500}}) {
      fault::RandomPlanOptions po;
      po.numClasses = net.numClasses;
      po.vcsPerClass = net.vcsPerClass;
      po.windowEnd = 20'000;
      po.retxLayer = layer == LinkLayerKind::Retx;
      po.mtbf = mtbf;
      for (std::uint64_t seed = 1; seed <= 40; ++seed)
        EXPECT_EQ(fault::checkPlan(fault::generateRandomPlan(seed, po), mesh,
                                   net),
                  "")
            << "seed " << seed << " mtbf " << mtbf;
    }
  }

  // The fuzz harness's plans, each on its own case's geometry, PARSEC
  // twins included.
  for (const LinkLayerKind layer : {LinkLayerKind::Ideal, LinkLayerKind::Retx}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      std::vector<check::FuzzCase> cases{check::generateCase(seed)};
      cases[0].linkLayer = layer;
      if (auto twin = check::parsecTwin(seed, cases[0]))
        cases.push_back(std::move(*twin));
      for (const check::FuzzCase& c : cases) {
        NetworkConfig net;
        net.numClasses = c.numClasses;
        net.vcsPerClass = c.vcsPerClass;
        net.linkLayer = c.linkLayer;
        EXPECT_EQ(fault::checkPlan(check::generateFaultPlan(seed, c),
                                   Mesh(c.meshW, c.meshH), net),
                  "")
            << c.describe();
      }
    }
  }

  // The faults campaign's canned and density plans, on each cell's own
  // network (calibration stubbed: the plans do not depend on the loads).
  for (const LinkLayerKind layer : {LinkLayerKind::Ideal, LinkLayerKind::Retx}) {
    campaign::BuildContext ctx = campaign::defaultBuildContext(true);
    ctx.sim.net.linkLayer = layer;
    ctx.faultDensity = 0.5;
    ctx.value = [](const std::string&, const std::function<double()>&) {
      return 0.1;
    };
    const campaign::CampaignSpec spec =
        campaign::buildBuiltinCampaign("faults", ctx);
    for (const campaign::CampaignCell& cell : spec.cells) {
      ASSERT_TRUE(cell.spec.has_value()) << cell.key;
      EXPECT_EQ(fault::checkPlan(cell.spec->faults, *cell.spec->mesh,
                                 cell.spec->effectiveConfig().net),
                "")
          << cell.key;
    }
  }
}

}  // namespace
}  // namespace rair

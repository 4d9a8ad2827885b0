// Link-layer contract tests beyond the basics in test_link.cpp: DelayPipe
// restore-order invariants, RetxLink go-back-N unit behaviour (corruption,
// NAK recovery, replay-buffer wrap-around), scenario-level ideal/retx
// equivalence at every shard-thread count, and byte-stable snapshots taken
// mid-retransmission.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "link/link_layer.h"
#include "link/retx.h"
#include "sim/scenario.h"
#include "snapshot/buffer.h"
#include "snapshot/scenario_key.h"
#include "sim_test_util.h"

namespace rair {
namespace {

// ---- DelayPipe restore-order invariants ------------------------------------

TEST(DelayPipeRestore, RoundTripReproducesArrivals) {
  DelayPipe<int> p(3);
  p.push(10, 1);
  p.push(11, 2);
  p.push(13, 3);

  // Save (walk entries), clear, restore in front-to-back order.
  std::vector<std::pair<Cycle, int>> saved;
  for (std::size_t i = 0; i < p.size(); ++i) saved.push_back(p.entry(i));
  p.clearForRestore();
  EXPECT_TRUE(p.empty());
  for (const auto& [arrival, v] : saved) p.pushAbsolute(arrival, v);

  EXPECT_FALSE(p.pop(12).has_value());
  EXPECT_EQ(p.pop(13).value(), 1);
  EXPECT_EQ(p.pop(14).value(), 2);
  EXPECT_EQ(p.pop(16).value(), 3);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(DelayPipeRestoreDeathTest, RejectsOutOfOrderPushAbsolute) {
  // Restoring entries out of saved order would fabricate a queue that can
  // deliver out of FIFO order; the debug check refuses to build one.
  DelayPipe<int> p(1);
  p.clearForRestore();
  p.pushAbsolute(5, 1);
  EXPECT_DEATH(p.pushAbsolute(4, 2), "pushAbsolute|DCHECK|arrival");
}

TEST(DelayPipeRestoreDeathTest, RejectsTimeTravelPush) {
  DelayPipe<int> p(2);
  p.push(10, 1);
  EXPECT_DEATH(p.push(5, 2), "push|DCHECK|latency");
}
#endif

// ---- RetxLink unit behaviour -----------------------------------------------

/// Drives both endpoints of one RetxLink with the engine's phase
/// discipline: upstream polls credits, sends and pumps first; downstream
/// receives, credits back and flushes control second.
struct RetxHarness {
  RetxLink link;
  Cycle now = 0;
  std::vector<PacketId> delivered;

  explicit RetxHarness(Cycle latency, std::size_t cap) : link(latency, cap) {}

  void cycle(std::optional<PacketId> sendPkt) {
    // Phase A (upstream endpoint): apply arrived credits/ACKs/NAKs, hand
    // over at most one flit, pump the wire.
    while (link.peekCredit(now) != nullptr) link.popCredit();
    if (sendPkt.has_value()) {
      Flit f;
      f.pkt = *sendPkt;
      link.sendFlit(now, f, 0);
    }
    link.tickUpstream(now);
    // Phase B (downstream endpoint): accept the in-order flit, return a
    // credit, flush one control message.
    if (const FlitMsg* m = link.peekFlit(now)) {
      delivered.push_back(m->flit.pkt);
      link.popFlit();
      link.sendCredit(now, m->vc);
    }
    link.tickDownstream(now);
    ++now;
  }
};

TEST(RetxLink, FaultFreeTimingMatchesIdeal) {
  // A flit handed over at cycle t is accepted at t + latency — the exact
  // IdealLink schedule, so a corruption-free retx network is
  // cycle-identical to an ideal one.
  for (const Cycle latency : {Cycle{1}, Cycle{2}}) {
    RetxHarness h(latency, 16);
    h.cycle(PacketId{7});
    for (Cycle c = 1; c < latency; ++c) {
      h.cycle(std::nullopt);
      EXPECT_TRUE(h.delivered.empty()) << "latency " << latency;
    }
    h.cycle(std::nullopt);
    ASSERT_EQ(h.delivered.size(), 1u) << "latency " << latency;
    EXPECT_EQ(h.delivered[0], 7u);
  }
}

TEST(RetxLink, CorruptedFlitIsNakdAndRedeliveredInOrder) {
  RetxHarness h(1, 16);
  h.link.corruptNext(1);
  h.cycle(PacketId{10});
  h.cycle(PacketId{11});
  h.cycle(PacketId{12});
  for (int i = 0; i < 12; ++i) h.cycle(std::nullopt);

  // Exactly once each, in order — the corrupt head was replayed, the
  // gapped successors were dropped downstream and replayed behind it.
  EXPECT_EQ(h.delivered, (std::vector<PacketId>{10, 11, 12}));
  EXPECT_EQ(h.link.corruptedFlits(), 1u);
  EXPECT_GE(h.link.retransmittedFlits(), 2u);
  EXPECT_TRUE(h.link.idle());
  EXPECT_EQ(h.link.expectSeq(), 3u);
}

TEST(RetxLink, CorruptionBurstMidStreamRecovers) {
  RetxHarness h(1, 32);
  std::vector<PacketId> expected;
  for (PacketId p = 0; p < 30; ++p) {
    if (p == 9) h.link.corruptNext(3);
    h.cycle(p);
    expected.push_back(p);
  }
  for (int i = 0; i < 40; ++i) h.cycle(std::nullopt);

  EXPECT_EQ(h.delivered, expected);
  EXPECT_EQ(h.link.corruptedFlits(), 3u);
  EXPECT_GT(h.link.retransmittedFlits(), 0u);
  EXPECT_TRUE(h.link.idle());
}

TEST(RetxLink, ReplayBufferWrapsAround) {
  // Far more traffic than the replay capacity: cumulative ACKs retire
  // entries while the ring's head and tail wrap repeatedly. Order must
  // hold and occupancy must stay within the credit-loop bound.
  constexpr std::size_t kCap = 8;
  RetxHarness h(1, kCap);
  std::vector<PacketId> expected;
  for (PacketId p = 0; p < 100; ++p) {
    h.cycle(p);
    expected.push_back(p);
    EXPECT_LE(h.link.replayOccupancy(), kCap);
  }
  for (int i = 0; i < 10; ++i) h.cycle(std::nullopt);

  EXPECT_EQ(h.delivered, expected);
  EXPECT_TRUE(h.link.idle());
  EXPECT_EQ(h.link.replayOccupancy(), 0u);
  EXPECT_EQ(h.link.retransmittedFlits(), 0u);
}

// ---- Scenario-level equivalence --------------------------------------------

ScenarioSpec smallSpec(const Mesh& mesh, const RegionMap& regions) {
  SimConfig cfg;
  cfg.warmupCycles = 200;
  cfg.measureCycles = 1'000;
  cfg.drainLimit = 20'000;
  std::vector<AppTrafficSpec> apps(2);
  apps[0].app = 0;
  apps[0].injectionRate = 0.08;
  apps[1].app = 1;
  apps[1].injectionRate = 0.15;
  return ScenarioSpec(mesh, regions)
      .withConfig(cfg)
      .withScheme(schemeRaRair())
      .withApps(std::move(apps))
      .withSeed(42);
}

/// A plan whose corruption burst lands mid-measurement on a busy
/// intra-region link (requires the retx layer).
fault::FaultPlan corruptionPlan(const Mesh& mesh) {
  fault::FaultPlan plan;
  plan.corruptFlits(400, mesh.nodeAt({2, 2}), Dir::East, 10);
  plan.corruptFlits(600, mesh.nodeAt({5, 4}), Dir::West, 5);
  return plan;
}

void expectSameResult(const ScenarioResult& x, const ScenarioResult& y) {
  EXPECT_EQ(x.appApl, y.appApl);
  EXPECT_EQ(x.meanApl, y.meanApl);
  EXPECT_EQ(x.run.cyclesRun, y.run.cyclesRun);
  EXPECT_EQ(x.run.packetsCreated, y.run.packetsCreated);
  EXPECT_EQ(x.run.packetsDelivered, y.run.packetsDelivered);
  EXPECT_EQ(x.run.termination, y.run.termination);
  EXPECT_EQ(x.run.flitHops, y.run.flitHops);
}

TEST(LinkLayerScenario, CleanRetxRunMatchesIdealAtEveryThreadCount) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec base = smallSpec(mesh, regions);

  // With no corruption the retx layer is pure overhead: same handover
  // cycle, same acceptance cycle — the simulated outcome is identical to
  // the ideal layer, under any shard-thread count.
  const ScenarioResult ideal = runScenario(base);
  for (const int threads : {1, 4}) {
    const ScenarioResult retx =
        runScenario(ScenarioSpec(base)
                        .withLinkLayer(LinkLayerKind::Retx)
                        .withThreads(threads));
    expectSameResult(retx, ideal);
  }
}

TEST(LinkLayerScenario, CorruptionRecoveryIsThreadCountInvariant) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      ScenarioSpec(smallSpec(mesh, regions))
          .withLinkLayer(LinkLayerKind::Retx)
          .withFaults(corruptionPlan(mesh));

  const ScenarioResult single = runScenario(spec);
  ASSERT_TRUE(single.faultStats.has_value());
  EXPECT_EQ(single.faultStats->corruptedFlits, 15u);
  EXPECT_GE(single.faultStats->retransmittedFlits, 15u);
  EXPECT_EQ(single.run.termination, Termination::Drained);

  for (const int threads : {2, 4}) {
    const ScenarioResult sharded =
        runScenario(ScenarioSpec(spec).withThreads(threads));
    expectSameResult(sharded, single);
    ASSERT_TRUE(sharded.faultStats.has_value());
    EXPECT_EQ(*sharded.faultStats, *single.faultStats);
  }
}

// ---- Mid-retransmission snapshots ------------------------------------------

std::vector<std::uint8_t> serializedAfter(const ScenarioSpec& spec,
                                          Cycle cycles) {
  AssembledScenario as = assembleScenario(spec);
  as.sim->begin();
  while (as.sim->now() < cycles) as.sim->stepCycle();
  snapshot::Writer w;
  as.sim->save(w);
  return w.payload();
}

TEST(RetxSnapshot, MidRetransmissionStateIsByteStable) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  // Observation point 402: the burst armed at 400 is mid-recovery — the
  // serialized state carries corrupt wire flits, staged NAKs and a
  // rewound replay pump.
  const ScenarioSpec spec =
      ScenarioSpec(smallSpec(mesh, regions))
          .withLinkLayer(LinkLayerKind::Retx)
          .withFaults(corruptionPlan(mesh));
  const auto t1 = serializedAfter(spec, 402);

  // Identical bytes at every shard-thread count...
  for (const int threads : {2, 4}) {
    const auto sharded =
        serializedAfter(ScenarioSpec(spec).withThreads(threads), 402);
    EXPECT_TRUE(t1 == sharded) << "threads=" << threads;
  }

  // ...and restore -> save round-trips byte-stably.
  AssembledScenario restored = assembleScenario(spec);
  snapshot::Reader r(t1);
  restored.sim->restore(r);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(restored.sim->now(), 402u);
  snapshot::Writer w2;
  restored.sim->save(w2);
  EXPECT_TRUE(w2.payload() == t1);
}

TEST(RetxSnapshot, MidRetransmissionCheckpointResumeMatchesStraightRun) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      ScenarioSpec(smallSpec(mesh, regions))
          .withLinkLayer(LinkLayerKind::Retx)
          .withFaults(corruptionPlan(mesh));

  const ScenarioResult straight = runScenario(spec);
  ASSERT_TRUE(straight.faultStats.has_value());

  const std::string dir = ::testing::TempDir() + "rair_retx_mid";
  const std::string path = testutil::checkpointPath(dir, spec);
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 402, path));

  // Resume on a different thread count than the straight run.
  const ScenarioResult resumed =
      runScenario(testutil::checkpointingIn(spec, dir).withThreads(4));
  EXPECT_EQ(resumed.resumedFromCycle, 402u);
  expectSameResult(resumed, straight);
  ASSERT_TRUE(resumed.faultStats.has_value());
  EXPECT_EQ(*resumed.faultStats, *straight.faultStats);
  snapshot::removeFile(path);
}

TEST(RetxSnapshot, LinkLayerEntersTheScenarioKeys) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec ideal = smallSpec(mesh, regions);
  const ScenarioSpec retx =
      ScenarioSpec(smallSpec(mesh, regions))
          .withLinkLayer(LinkLayerKind::Retx);
  // A retx network carries replay/sequence state an ideal one does not:
  // the two must never share warm caches or checkpoints.
  EXPECT_NE(snapshot::warmStateKey(ideal), snapshot::warmStateKey(retx));
  EXPECT_NE(snapshot::fullStateKey(ideal), snapshot::fullStateKey(retx));
}

}  // namespace
}  // namespace rair

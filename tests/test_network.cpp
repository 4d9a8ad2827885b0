// End-to-end tests of the router pipeline, flow control and delivery.
#include <gtest/gtest.h>

#include <memory>

#include "core/rair_policy.h"
#include "sim_test_util.h"
#include "traffic/generator.h"

namespace rair {
namespace {

using testutil::ScriptedSource;

/// Head flits pay 3 router cycles + 1 link cycle per router, plus the
/// initial NIC->router link; tails trail by numFlits-1 cycles.
Cycle expectedZeroLoadLatency(int hops, int numFlits) {
  return static_cast<Cycle>(4 * hops + 5 + (numFlits - 1));
}

TEST(NetworkPipeline, SingleFlitZeroLoadLatency) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Simulator sim(m, rm, testutil::fastConfig(), policy, 2);
  // (0,0) -> (3,0): 3 hops, same row.
  sim.addSource(std::make_unique<ScriptedSource>(
      std::vector<ScriptedSource::Event>{{10, m.nodeAt({0, 0}),
                                          m.nodeAt({3, 0}), 0, 1}}));
  const auto r = sim.run();
  EXPECT_TRUE(r.fullyDrained);
  ASSERT_EQ(r.stats.app(0).totalLatency.count(), 1u);
  EXPECT_EQ(r.stats.appApl(0),
            static_cast<double>(expectedZeroLoadLatency(3, 1)));
  EXPECT_EQ(r.stats.app(0).hops.mean(), 4.0);  // 4 routers traversed
}

TEST(NetworkPipeline, FiveFlitPacketAddsSerialization) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Simulator sim(m, rm, testutil::fastConfig(), policy, 2);
  sim.addSource(std::make_unique<ScriptedSource>(
      std::vector<ScriptedSource::Event>{{10, m.nodeAt({0, 0}),
                                          m.nodeAt({3, 0}), 0, 5}}));
  const auto r = sim.run();
  ASSERT_EQ(r.stats.app(0).totalLatency.count(), 1u);
  EXPECT_EQ(r.stats.appApl(0),
            static_cast<double>(expectedZeroLoadLatency(3, 5)));
}

TEST(NetworkPipeline, DiagonalRoute) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Simulator sim(m, rm, testutil::fastConfig(), policy, 2);
  sim.addSource(std::make_unique<ScriptedSource>(
      std::vector<ScriptedSource::Event>{{0, m.nodeAt({1, 1}),
                                          m.nodeAt({5, 6}), 0, 1}}));
  const auto r = sim.run();
  ASSERT_EQ(r.stats.app(0).totalLatency.count(), 1u);
  // 9 hops minimal; adaptive routing must stay minimal.
  EXPECT_EQ(r.stats.app(0).hops.mean(), 10.0);
  EXPECT_EQ(r.stats.appApl(0),
            static_cast<double>(expectedZeroLoadLatency(9, 1)));
}

TEST(NetworkPipeline, AllRoutingAlgorithmsDeliverMinimally) {
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  for (RoutingKind kind :
       {RoutingKind::Xy, RoutingKind::LocalAdaptive, RoutingKind::Dbar}) {
    RoundRobinPolicy policy;
    auto cfg = testutil::fastConfig();
    cfg.routing = kind;
    Simulator sim(m, rm, cfg, policy, 4);
    sim.addSource(std::make_unique<ScriptedSource>(
        std::vector<ScriptedSource::Event>{
            {0, m.nodeAt({0, 0}), m.nodeAt({7, 7}), 0, 5},
            {0, m.nodeAt({7, 0}), m.nodeAt({0, 7}), 1, 1},
            {3, m.nodeAt({4, 4}), m.nodeAt({4, 5}), 3, 5}}));
    const auto r = sim.run();
    EXPECT_TRUE(r.fullyDrained);
    EXPECT_EQ(r.packetsDelivered, 3u);
    EXPECT_EQ(r.stats.app(0).hops.mean(), 15.0);  // 14 hops -> 15 routers
    EXPECT_EQ(r.stats.app(1).hops.mean(), 15.0);
    EXPECT_EQ(r.stats.app(3).hops.mean(), 2.0);
  }
}

TEST(NetworkPipeline, PacketConservationUnderLoad) {
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  RoundRobinPolicy policy;
  auto cfg = testutil::fastConfig();
  cfg.measureCycles = 3'000;
  Simulator sim(m, rm, cfg, policy, 4);
  for (AppId a = 0; a < 4; ++a) {
    AppTrafficSpec spec;
    spec.app = a;
    spec.injectionRate = 0.15;
    spec.intraFraction = 0.7;
    spec.interFraction = 0.3;
    sim.addSource(std::make_unique<RegionalizedSource>(
        m, rm, spec, 1000 + static_cast<std::uint64_t>(a)));
  }
  const auto r = sim.run();
  EXPECT_TRUE(r.fullyDrained);
  EXPECT_GT(r.packetsCreated, 1000u);
  // Drained means every measured packet arrived; the ledger may still
  // hold drain-phase packets, so compare measured counts via stats.
  EXPECT_EQ(r.stats.measuredInFlight(), 0u);
  for (AppId a = 0; a < 4; ++a)
    EXPECT_GT(r.stats.app(a).totalLatency.count(), 100u);
}

TEST(NetworkPipeline, DeterministicAcrossRuns) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  auto once = [&] {
    RoundRobinPolicy policy;
    auto cfg = testutil::fastConfig();
    Simulator sim(m, rm, cfg, policy, 2);
    AppTrafficSpec spec;
    spec.app = 0;
    spec.injectionRate = 0.2;
    spec.intraFraction = 0.5;
    spec.interFraction = 0.5;
    sim.addSource(std::make_unique<RegionalizedSource>(m, rm, spec, 42));
    AppTrafficSpec spec2 = spec;
    spec2.app = 1;
    sim.addSource(std::make_unique<RegionalizedSource>(m, rm, spec2, 43));
    return sim.run();
  };
  const auto r1 = once();
  const auto r2 = once();
  EXPECT_EQ(r1.packetsCreated, r2.packetsCreated);
  EXPECT_EQ(r1.packetsDelivered, r2.packetsDelivered);
  EXPECT_DOUBLE_EQ(r1.stats.overallApl(), r2.stats.overallApl());
}

TEST(NetworkPipeline, NoDeadlockNearSaturation) {
  // Heavy adversarial cross-traffic with adaptive routing: the Duato
  // escape VCs must keep the network deadlock-free (the watchdog aborts
  // the process otherwise).
  Mesh m(8, 8);
  const auto rm = RegionMap::quadrants(m);
  RoundRobinPolicy policy;
  auto cfg = testutil::fastConfig();
  cfg.measureCycles = 4'000;
  Simulator sim(m, rm, cfg, policy, 5);
  sim.addSource(std::make_unique<AdversarialSource>(m, 4, 0.45, 7));
  for (AppId a = 0; a < 4; ++a) {
    AppTrafficSpec spec;
    spec.app = a;
    spec.injectionRate = 0.2;
    spec.intraFraction = 0.6;
    spec.interFraction = 0.4;
    spec.interPattern = PatternKind::Transpose;
    sim.addSource(std::make_unique<RegionalizedSource>(
        m, rm, spec, 99 + static_cast<std::uint64_t>(a)));
  }
  const auto r = sim.run();
  EXPECT_GT(r.packetsDelivered, 5000u);
}

TEST(NetworkPipeline, RairPartitionRunsAllPolicies) {
  // The regional/global VC tagging must not break any policy.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  auto cfg = testutil::fastConfig();
  cfg.net.rairPartition = true;
  RairPolicy rair;
  RoundRobinPolicy rr;
  const std::array<const ArbiterPolicy*, 2> policies = {&rair, &rr};
  for (const ArbiterPolicy* policy : policies) {
    Simulator sim(m, rm, cfg, *policy, 2);
    for (AppId a = 0; a < 2; ++a) {
      AppTrafficSpec spec;
      spec.app = a;
      spec.injectionRate = 0.15;
      spec.intraFraction = 0.8;
      spec.interFraction = 0.2;
      sim.addSource(std::make_unique<RegionalizedSource>(
          m, rm, spec, 5 + static_cast<std::uint64_t>(a)));
    }
    const auto r = sim.run();
    EXPECT_TRUE(r.fullyDrained) << policy->name();
    EXPECT_GT(r.packetsDelivered, 500u) << policy->name();
  }
}

TEST(NetworkPipeline, MultiClassTraffic) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  auto cfg = testutil::fastConfig();
  cfg.net.numClasses = 2;
  cfg.net.vcsPerClass = 4;
  Simulator sim(m, rm, cfg, policy, 2);
  sim.addSource(std::make_unique<ScriptedSource>(
      std::vector<ScriptedSource::Event>{
          {0, 0, 15, 0, 1, MsgClass::Request},
          {0, 15, 0, 1, 5, MsgClass::Reply},
          {2, 5, 10, 0, 5, MsgClass::Request}}));
  const auto r = sim.run();
  EXPECT_TRUE(r.fullyDrained);
  EXPECT_EQ(r.packetsDelivered, 3u);
}

TEST(NetworkPipeline, DeferredInjection) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Simulator sim(m, rm, testutil::fastConfig(), policy, 2);
  sim.injectAt(100, 0, 15, 0, MsgClass::Request, 1);
  const auto r = sim.run();
  EXPECT_EQ(r.packetsDelivered, 1u);
  ASSERT_EQ(r.stats.app(0).totalLatency.count(), 1u);
  // Created exactly at cycle 100: zero-load latency for 6 hops.
  EXPECT_EQ(r.stats.appApl(0), static_cast<double>(4 * 6 + 5));
}

TEST(NetworkPipeline, DeliveryHookSynthesizesReplies) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  auto cfg = testutil::fastConfig();
  cfg.net.numClasses = 2;
  Simulator sim(m, rm, cfg, policy, 2);
  int replies = 0;
  sim.setDeliveryHook([&](const Packet& p, InjectionSink& sink) {
    if (p.msgClass == MsgClass::Request) {
      ++replies;
      sim.injectAt(sink.now() + 6, p.dst, p.src, p.app, MsgClass::Reply,
                   kLongPacketFlits);
    }
  });
  sim.addSource(std::make_unique<ScriptedSource>(
      std::vector<ScriptedSource::Event>{{0, 0, 15, 0, 1,
                                          MsgClass::Request}}));
  const auto r = sim.run();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(r.packetsDelivered, 2u);
}

TEST(NetworkPipeline, QuiescentAfterDrain) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Simulator sim(m, rm, testutil::fastConfig(), policy, 2);
  sim.addSource(std::make_unique<ScriptedSource>(
      std::vector<ScriptedSource::Event>{{0, 0, 15, 0, 5}}));
  const auto r = sim.run();
  EXPECT_TRUE(r.fullyDrained);
  EXPECT_TRUE(sim.network().quiescent());
}

TEST(NetworkPipeline, ProgressTimeoutCountsFromTheLastCycleWithProgress) {
  // One packet crosses row 1 and is delivered; a later one is stuck
  // behind a port stalled for good, so the last progress is its crossing
  // of router 0's switch. L is the last cycle in which a flit crossed a
  // switch or a packet was delivered: the tripwire fires on cycle
  // L + progressTimeout + 1, the first cycle more than progressTimeout
  // cycles past it.
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  SimConfig cfg = testutil::fastConfig();
  cfg.progressTimeout = 100;
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::FaultPlan::parse("@0 stall 1 E\n", plan));
  const std::vector<TraceRecord> trace = {
      {10, m.nodeAt({0, 1}), m.nodeAt({3, 1}), 0, MsgClass::Request, 5},
      {80, m.nodeAt({0, 0}), m.nodeAt({3, 0}), 0, MsgClass::Request, 1},
  };
  AssembledScenario as = assembleScenario(ScenarioSpec(m, rm)
                                              .withConfig(cfg)
                                              .withScheme(schemeRoRr())
                                              .withTrace(trace)
                                              .withFaults(plan));
  struct LastProgress final : SimObserver {
    const Simulator* sim = nullptr;
    std::uint64_t hops = 0;
    Cycle last = 0;
    void onCycleEnd(Cycle now) override {
      const std::uint64_t h = sim->network().totalFlitsTraversed();
      if (h != hops) last = now;
      hops = h;
    }
    void onDelivery(const Packet&) override { last = sim->now(); }
  } probe;
  probe.sim = as.sim.get();
  as.sim->observers().attach(&probe);
  const RunResult r = as.sim->run();
  EXPECT_EQ(r.termination, Termination::ProgressTimeout);
  EXPECT_EQ(r.packetsDelivered, 1u);
  EXPECT_GT(probe.last, 80u);
  EXPECT_EQ(r.cyclesRun, probe.last + cfg.progressTimeout + 1);
}

}  // namespace
}  // namespace rair

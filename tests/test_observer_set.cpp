// ObserverSet: the simulator's dynamic observer list. Attach/detach
// ordering, the absence of a slot-count ceiling, dispatch of all three
// callbacks through a live simulation, and a delivery hook that creates
// packets giving the same bytes at one and four shard threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

/// Appends its id to a shared log on every callback.
struct TaggedObserver final : SimObserver {
  TaggedObserver(int id, std::vector<int>& log) : id(id), log(&log) {}
  void onCycleBegin(Cycle) override { log->push_back(id); }
  int id;
  std::vector<int>* log;
};

TEST(ObserverSet, FiresInAttachmentOrderWithoutSlotCeiling) {
  std::vector<int> log;
  // Eight observers: double the old fixed four-slot array.
  std::vector<TaggedObserver> obs;
  obs.reserve(8);
  for (int i = 0; i < 8; ++i) obs.emplace_back(i, log);

  ObserverSet set;
  EXPECT_TRUE(set.empty());
  for (auto& o : obs) set.attach(&o);
  EXPECT_EQ(set.size(), 8u);

  set.notifyCycleBegin(0);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ObserverSet, DetachPreservesOrderOfTheRest) {
  std::vector<int> log;
  std::vector<TaggedObserver> obs;
  obs.reserve(5);
  for (int i = 0; i < 5; ++i) obs.emplace_back(i, log);

  ObserverSet set;
  for (auto& o : obs) set.attach(&o);

  EXPECT_TRUE(set.detach(&obs[2]));
  EXPECT_FALSE(set.detach(&obs[2]));  // already gone
  EXPECT_FALSE(set.attached(&obs[2]));
  EXPECT_EQ(set.size(), 4u);

  set.notifyCycleBegin(0);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 3, 4}));

  // Re-attaching appends at the end.
  set.attach(&obs[2]);
  log.clear();
  set.notifyCycleBegin(1);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 3, 4, 2}));

  set.clear();
  EXPECT_TRUE(set.empty());
}

// ---- Dispatch through a live simulation -----------------------------------

constexpr double kHalfSat = 0.38195418397913583;

ScenarioSpec smallSpec(const Mesh& mesh, const RegionMap& regions) {
  return ScenarioSpec(mesh, regions)
      .withScheme(schemeRaRair())
      .withApps(scenarios::twoAppInterRegion(
          0.5, scenarios::kLowLoadFraction * kHalfSat,
          scenarios::kHighLoadFraction * kHalfSat))
      .withSeed(7)
      .withFastWindows();
}

/// Counts every callback; records the cycle bounds seen.
struct CountingObserver final : SimObserver {
  void onCycleBegin(Cycle now) override {
    ++begins;
    lastBegin = now;
  }
  void onCycleEnd(Cycle now) override {
    ++ends;
    lastEnd = now;
  }
  void onDelivery(const Packet& p) override {
    ++deliveries;
    lastHops = p.hops;
  }
  int begins = 0, ends = 0, deliveries = 0;
  Cycle lastBegin = 0, lastEnd = 0;
  std::uint16_t lastHops = 0;
};

TEST(ObserverSet, SimulatorDispatchesAllThreeCallbacks) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  AssembledScenario as = assembleScenario(smallSpec(mesh, regions));

  CountingObserver counter;
  as.sim->observers().attach(&counter);
  as.sim->begin();
  for (int i = 0; i < 500; ++i) as.sim->stepCycle();

  EXPECT_EQ(counter.begins, 500);
  EXPECT_EQ(counter.ends, 500);
  EXPECT_EQ(counter.lastBegin, 499u);
  EXPECT_EQ(counter.lastEnd, 499u);
  EXPECT_GT(counter.deliveries, 0);
  EXPECT_GT(counter.lastHops, 0);

  // Detached observers stop firing.
  EXPECT_TRUE(as.sim->observers().detach(&counter));
  as.sim->stepCycle();
  EXPECT_EQ(counter.begins, 500);
}

TEST(ObserverSet, DeliveryHookRunIsByteIdenticalAtOneAndFourThreads) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = smallSpec(mesh, regions);

  // The hook answers a delivery from a lower to a higher node id at once
  // (answers go the other way, so they are never answered) and schedules
  // a second answer a few cycles later. It runs during the engine's
  // staged replay, so both kinds of injection land at the same point of
  // the cycle at every thread count.
  auto runHooked = [&](int threads) {
    AssembledScenario as =
        assembleScenario(ScenarioSpec(spec).withThreads(threads));
    Simulator& sim = *as.sim;
    std::uint64_t answers = 0;
    sim.setDeliveryHook([&sim, &answers](const Packet& p,
                                         InjectionSink& sink) {
      if (p.src >= p.dst) return;
      sink.createPacket(p.dst, p.src, p.app, p.msgClass, 1);
      sim.injectAt(sink.now() + 3, p.dst, p.src, p.app, p.msgClass, 5);
      ++answers;
    });
    EXPECT_FALSE(sim.snapshotSupported());
    sim.begin();
    for (int i = 0; i < 2000; ++i) sim.stepCycle();
    snapshot::Writer w;
    sim.save(w);
    return std::pair(w.payload(), answers);
  };

  const auto [t1, t1Answers] = runHooked(1);
  const auto [t4, t4Answers] = runHooked(4);
  EXPECT_GT(t1Answers, 100u);
  EXPECT_EQ(t4Answers, t1Answers);
  EXPECT_TRUE(t1 == t4);
}

}  // namespace
}  // namespace rair

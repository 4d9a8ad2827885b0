// Restore under faults: a snapshot's "fault" section holds the event
// cursor, the lost-credit ledger and the run accounting, and restore
// rebuilds every fault level (dead links, stalls, freezes, soft resets
// with their retx receiver-down flags) by replaying the applied plan
// prefix. A restored run must continue byte-identically to the straight
// one from any cycle, across the next plan event, on either link layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/fuzz.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "snapshot/bisect.h"
#include "snapshot/buffer.h"
#include "sim_test_util.h"

namespace rair {
namespace {

using fault::FaultPlan;
using testutil::savedBytes;

/// Two half-mesh apps, half of each app's traffic crossing into the other
/// half, so the faulted channels in the middle columns carry flits.
ScenarioSpec crossingSpec(const Mesh& mesh, const RegionMap& regions,
                          LinkLayerKind layer, FaultPlan plan) {
  SimConfig cfg;
  cfg.warmupCycles = 100;
  cfg.measureCycles = 1'000;
  cfg.drainLimit = 20'000;
  cfg.net.linkLayer = layer;
  std::vector<AppTrafficSpec> apps(2);
  for (AppId a = 0; a < 2; ++a) {
    apps[a].app = a;
    apps[a].injectionRate = 0.12;
    apps[a].intraFraction = 0.5;
    apps[a].interFraction = 0.5;
  }
  return ScenarioSpec(mesh, regions)
      .withConfig(cfg)
      .withScheme(schemeRaRair())
      .withApps(std::move(apps))
      .withSeed(7)
      .withFaults(std::move(plan));
}

/// Saves the straight run of `spec` at every cycle up to one past its last
/// plan event, restores each save into a fresh assembly and steps the copy
/// through the next plan event (32 cycles once none is pending); its bytes
/// must equal the straight run's at that cycle.
void expectRestoreAtEveryCycleContinues(const ScenarioSpec& spec) {
  const auto& events = spec.faults.events();
  ASSERT_FALSE(events.empty());
  const Cycle last = events.back().at + 1;
  AssembledScenario straight = assembleScenario(spec);
  straight.sim->begin();
  std::vector<std::vector<std::uint8_t>> at{savedBytes(*straight.sim)};
  while (straight.sim->now() < last + 32) {
    straight.sim->stepCycle();
    at.push_back(savedBytes(*straight.sim));
  }

  std::size_t pending = 0;  // first event not applied before cycle c
  for (Cycle c = 0; c <= last; ++c) {
    while (pending < events.size() && events[pending].at < c) ++pending;
    const Cycle target =
        pending < events.size() ? events[pending].at + 1 : c + 32;
    AssembledScenario resumed = assembleScenario(spec);
    snapshot::Reader r(at[c]);
    resumed.sim->restore(r);
    while (resumed.sim->now() < target) resumed.sim->stepCycle();
    const std::vector<std::uint8_t> continued = savedBytes(*resumed.sim);
    ASSERT_TRUE(continued == at[target])
        << "restored at cycle " << c << ", compared at " << target
        << ", first differing section "
        << snapshot::firstDifferingSection(at[target], continued);
  }
}

TEST(FaultRestore, IdealLevelsRestoreAtEveryCycle) {
  // Every ideal-layer level and impulse: a link outage, a port stall, an
  // injection freeze, a credit loss and two overlapping soft resets of
  // neighbours (the shared channel stays dead until the second recovers).
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  FaultPlan plan;
  plan.linkOutage(40, mesh.nodeAt({1, 1}), Dir::East, 100);
  plan.portStall(60, mesh.nodeAt({2, 2}), Dir::West, 70);
  plan.injectFreeze(80, mesh.nodeAt({1, 2}), 60);
  plan.creditLoss(100, mesh.nodeAt({1, 2}), Dir::East, 1, 2);
  plan.softReset(170, mesh.nodeAt({2, 2}), 50);
  plan.softReset(190, mesh.nodeAt({2, 3}), 50);
  expectRestoreAtEveryCycleContinues(
      crossingSpec(mesh, regions, LinkLayerKind::Ideal, plan));
}

TEST(FaultRestore, RetxLevelsRestoreAtEveryCycle) {
  // The retx family: corruption bursts, a port stall, and an injection
  // freeze that queues packets at a node which then soft-resets. The
  // thaw lands mid-reset, so the queued packets meet the receiver-down
  // injection channel.
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  FaultPlan plan;
  plan.corruptFlits(30, mesh.nodeAt({1, 1}), Dir::East, 4);
  plan.portStall(70, mesh.nodeAt({1, 2}), Dir::East, 60);
  plan.injectFreeze(100, mesh.nodeAt({2, 1}), 70);
  plan.softReset(150, mesh.nodeAt({2, 1}), 60);
  plan.corruptFlits(180, mesh.nodeAt({1, 1}), Dir::East, 3);
  expectRestoreAtEveryCycleContinues(
      crossingSpec(mesh, regions, LinkLayerKind::Retx, plan));
}

/// Steps `sim` the way the fuzz harness does until the case is quiescent
/// or its drain budget runs out; true when it drained.
bool stepToQuiescence(Simulator& sim, const check::FuzzCase& c,
                      const check::FuzzOptions& opts) {
  while (true) {
    sim.stepCycle();
    const Cycle now = sim.now();
    if (now >= c.sourceCycles && sim.inFlight() == 0 &&
        sim.pendingInjections() == 0 && sim.network().quiescent())
      return true;
    if (now >= c.sourceCycles + opts.drainBudget) return false;
  }
}

/// Forty fuzz cases on `layer` with their generated fault plans, each
/// restored at a random cycle up to one past its last event: run to
/// quiescence, the copy must end on the straight run's cycle, bytes and
/// FaultStats.
void expectFuzzPlansRestoreAtARandomCycle(LinkLayerKind layer,
                                          std::uint64_t seed) {
  check::FuzzOptions opts;
  opts.linkLayer = layer;
  Xoshiro256StarStar rng(seed);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t caseSeed = seed + i;
    check::FuzzCase c = check::generateCase(caseSeed);
    c.linkLayer = layer;
    c.faults = check::generateFaultPlan(caseSeed, c);
    Mesh mesh(c.meshW, c.meshH);
    const RegionMap regions =
        RegionMap::blockGrid(mesh, c.regionsX, c.regionsY);
    const ScenarioSpec spec =
        check::caseSpec(c, mesh, regions, schemeRaRair(), opts);
    const Cycle cut = rng.below(c.faults.events().back().at + 2);

    AssembledScenario straight = assembleScenario(spec);
    straight.sim->begin();
    while (straight.sim->now() < cut) straight.sim->stepCycle();
    const std::vector<std::uint8_t> saved = savedBytes(*straight.sim);
    AssembledScenario resumed = assembleScenario(spec);
    snapshot::Reader r(saved);
    resumed.sim->restore(r);

    EXPECT_TRUE(stepToQuiescence(*straight.sim, c, opts))
        << "case " << caseSeed << " did not drain";
    stepToQuiescence(*resumed.sim, c, opts);
    ASSERT_EQ(resumed.sim->now(), straight.sim->now())
        << "case " << caseSeed << " restored at cycle " << cut;
    const std::vector<std::uint8_t> want = savedBytes(*straight.sim);
    const std::vector<std::uint8_t> got = savedBytes(*resumed.sim);
    EXPECT_TRUE(got == want)
        << "case " << caseSeed << " restored at cycle " << cut
        << ", first differing section "
        << snapshot::firstDifferingSection(want, got);
    EXPECT_EQ(resumed.injector->stats(), straight.injector->stats())
        << "case " << caseSeed << " restored at cycle " << cut;
  }
}

TEST(FaultRestore, IdealFuzzPlansRestoreAtARandomCycle) {
  expectFuzzPlansRestoreAtARandomCycle(LinkLayerKind::Ideal, 0x1DEA10000ull);
}

TEST(FaultRestore, RetxFuzzPlansRestoreAtARandomCycle) {
  expectFuzzPlansRestoreAtARandomCycle(LinkLayerKind::Retx, 0x2E7A0000ull);
}

}  // namespace
}  // namespace rair

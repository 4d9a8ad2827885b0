// Every workload snapshots: the Fig. 16/17 PARSEC request/reply cells, a
// trace replay and fuzz-shaped runs (no warm-up, gated sources, fault
// plans) save their state, restore it, and continue exactly like the
// uninterrupted run. Each bisect saves on a 4-thread engine and continues
// on one thread, so the same check covers the engine's thread-count
// independence on these sparse, hooked workloads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "campaign/campaign.h"
#include "check/fuzz.h"
#include "common/rng.h"
#include "sim/scenario.h"
#include "sim_test_util.h"
#include "snapshot/bisect.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

/// The fast fig17 campaign's recorded "fig17/floodSat"
/// (SaturationVerdict's pinned flood knee).
constexpr double kFig17FloodSat = 0.32482907141920636;

/// The fast fig17 campaign, built without calibrating.
campaign::CampaignSpec fastFig17() {
  campaign::BuildContext ctx = campaign::defaultBuildContext(true);
  ctx.value = [](const std::string& key, const std::function<double()>&) {
    EXPECT_EQ(key, "fig17/floodSat");
    return kFig17FloodSat;
  };
  return campaign::buildBuiltinCampaign("fig17", ctx);
}

/// Saves at cycle `snapAt` on four threads, restores on one, and steps
/// both runs in lockstep to `horizon`.
void expectNoDivergence(const ScenarioSpec& spec, Cycle snapAt,
                        Cycle horizon) {
  const snapshot::BisectResult r = snapshot::bisectDivergence(
      ScenarioSpec(spec).withThreads(4), ScenarioSpec(spec).withThreads(1),
      snapAt, horizon);
  EXPECT_FALSE(r.diverged) << "diverged at cycle " << r.firstDivergentCycle
                           << " in section " << r.section;
}

TEST(WorkloadBisect, Fig17CellsContinueFromFourThreadsOnOne) {
  const campaign::CampaignSpec fig17 = fastFig17();
  ASSERT_EQ(fig17.cells.size(), 8u);
  for (std::size_t i = 0; i < fig17.cells.size(); ++i) {
    SCOPED_TRACE(fig17.cells[i].key);
    campaign::CellContext ctx;
    ctx.seed = campaign::cellSeed(fig17.campaignSeed, i);
    ScenarioSpec spec = *fig17.cells[i].spec;
    ctx.applyTo(spec);
    // Mid warm-up: requests in flight, replies waiting out their service
    // latency in the injection queue.
    expectNoDivergence(spec, 800, 1'000);
  }
}

TEST(WorkloadBisect, TraceReplayContinuesFromFourThreadsOnOne) {
  Mesh mesh(6, 6);
  const RegionMap regions = RegionMap::quadrants(mesh);
  Xoshiro256StarStar rng(5);
  std::vector<TraceRecord> trace;
  for (Cycle c = 0; c < 1'500; ++c) {
    for (NodeId src = 0; src < mesh.numNodes(); ++src) {
      if (!rng.chance(0.01)) continue;
      const auto dst = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(mesh.numNodes())));
      if (dst == src) continue;
      trace.push_back({c, src, dst, regions.appOf(src), MsgClass::Request,
                       static_cast<std::uint16_t>(rng.chance(0.5) ? 1 : 5)});
    }
  }
  SimConfig cfg;
  cfg.warmupCycles = 200;
  cfg.measureCycles = 1'000;
  const ScenarioSpec spec = ScenarioSpec(mesh, regions)
                                .withConfig(cfg)
                                .withScheme(schemeRaRair())
                                .withTrace(std::move(trace));
  expectNoDivergence(spec, 400, 700);
}

TEST(WorkloadBisect, FuzzCasesContinueFromFourThreadsOnOne) {
  // The first case seed with a PARSEC twin: the synthetic case and the
  // twin, each with the seed's fault plan, under RA_RAIR.
  std::uint64_t seed = 1;
  while (!check::parsecTwin(seed, check::generateCase(seed))) ++seed;
  const check::FuzzCase synthetic = check::generateCase(seed);
  for (check::FuzzCase c : {synthetic, *check::parsecTwin(seed, synthetic)}) {
    c.faults = check::generateFaultPlan(seed, c);
    SCOPED_TRACE(c.describe());
    ASSERT_FALSE(c.faults.empty());
    Mesh mesh(c.meshW, c.meshH);
    const RegionMap regions =
        RegionMap::blockGrid(mesh, c.regionsX, c.regionsY);
    const ScenarioSpec spec =
        check::caseSpec(c, mesh, regions, schemeRaRair(), {});
    // Across the source cutoff, where the gated sources stop ticking.
    expectNoDivergence(spec, c.sourceCycles / 2, c.sourceCycles + 200);
  }
}

TEST(WorkloadContinuation, Fig17CellResumedMidWindowMatchesStraightRecord) {
  const campaign::CampaignSpec fig17 = fastFig17();
  std::size_t index = 0;
  while (fig17.cells[index].key != "RA_RAIR/attack") ++index;
  const campaign::CampaignCell& cell = fig17.cells[index];
  campaign::CellContext ctx;
  ctx.seed = campaign::cellSeed(fig17.campaignSeed, index);
  ScenarioSpec spec = *cell.spec;
  ctx.applyTo(spec);
  const auto record = [&](const ScenarioResult& r) {
    return campaign::makeCellRecord(fig17, cell, ctx.seed, r, 0.0)
        .toJsonLine(/*includeVolatile=*/false);
  };
  const ScenarioResult straight = runScenario(spec);

  // The interrupted run: a checkpoint in the middle of the measurement
  // window (fast windows: warm-up 2,000, window end 22,000).
  const std::string dir = ::testing::TempDir() + "rair_cont_fig17";
  const std::string path = testutil::checkpointPath(dir, spec);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 12'000, path));
  const ScenarioResult resumed =
      runScenario(testutil::checkpointingIn(spec, dir));
  EXPECT_EQ(resumed.resumedFromCycle, 12'000u);
  EXPECT_EQ(record(resumed), record(straight));
  // The completed run deletes its checkpoint.
  EXPECT_FALSE(snapshot::readSnapshotFile(path).has_value());
}

}  // namespace
}  // namespace rair

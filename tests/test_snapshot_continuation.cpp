// Golden continuation: checkpoint a recorded-golden cell in the middle of
// its measurement window, restore, finish — and require the result to be
// byte-identical to the uninterrupted run (the exact golden numbers from
// test_equivalence.cpp). This is the load-bearing invariant of the
// snapshot subsystem: resuming is indistinguishable from never stopping.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/runner.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "snapshot/buffer.h"
#include "snapshot/checkpoint.h"
#include "snapshot/scenario_key.h"

namespace rair {
namespace {

/// Calibrated half-mesh saturation of the seed fig09 campaign (same
/// constant as test_equivalence.cpp).
constexpr double kHalfSat = 0.38195418397913583;

/// Fast-window fig12 scenario-a loads (same as test_equivalence.cpp).
constexpr double kFig12RatesA[4] = {0.070229165341078717, 0.05664346945403196,
                                    0.05664346945403196, 0.5679854733312848};

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

ScenarioSpec fig12SpecA(const Mesh& mesh, const RegionMap& regions,
                        const SchemeSpec& scheme, std::uint64_t seed) {
  auto apps = scenarios::fourAppLowTowardHigh(0, 0);
  for (std::size_t a = 0; a < 4; ++a) apps[a].injectionRate = kFig12RatesA[a];
  return ScenarioSpec(mesh, regions)
      .withScheme(scheme)
      .withApps(std::move(apps))
      .withSeed(seed)
      .withFastWindows();
}

// Fast windows: warmup 2000, measurement ends at 22000. Cycle 12000 is in
// the middle of the window, with measured packets in flight — the hardest
// point to capture correctly.
constexpr Cycle kMidWindow = 12'000;

TEST(Continuation, Fig09CellResumedMidWindowMatchesGolden) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.0, schemeRoRr(), 10451216379200822465ull);

  const std::string path = ::testing::TempDir() + "rair_cont_fig09.snap";
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, kMidWindow, path));

  const ScenarioResult r =
      runScenario(ScenarioSpec(spec).withCheckpoint(path));
  EXPECT_EQ(r.resumedFromCycle, kMidWindow);

  // The recorded golden numbers of the uninterrupted run
  // (test_equivalence.cpp, Fig09RoRrP0MatchesSeedImplementation).
  ASSERT_EQ(r.appApl.size(), 2u);
  EXPECT_EQ(r.appApl[0], 23.313518113299295);
  EXPECT_EQ(r.appApl[1], 29.36873761982563);
  EXPECT_EQ(r.meanApl, 28.725103050821176);
  EXPECT_EQ(r.run.cyclesRun, 22062u);
  EXPECT_EQ(r.run.packetsCreated, 85324u);
  EXPECT_EQ(r.run.packetsDelivered, 85224u);
  EXPECT_EQ(r.run.termination, Termination::Drained);

  // A completed run deletes its checkpoint.
  EXPECT_FALSE(snapshot::readSnapshotFile(path).has_value());
}

TEST(Continuation, Fig12CellResumedMidWindowMatchesGolden) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  const ScenarioSpec spec =
      fig12SpecA(mesh, regions, schemeRaRair(), 16184226688143867045ull);

  const std::string path = ::testing::TempDir() + "rair_cont_fig12.snap";
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, kMidWindow, path));

  const ScenarioResult r =
      runScenario(ScenarioSpec(spec).withCheckpoint(path));
  EXPECT_EQ(r.resumedFromCycle, kMidWindow);

  // Golden numbers of the uninterrupted run (test_equivalence.cpp,
  // Fig12RaRairScenarioAMatchesRecordedGolden).
  ASSERT_EQ(r.appApl.size(), 4u);
  EXPECT_EQ(r.appApl[0], 24.793486894360605);
  EXPECT_EQ(r.appApl[1], 21.615497076023392);
  EXPECT_EQ(r.appApl[2], 21.577321281840593);
  EXPECT_EQ(r.appApl[3], 34.977863377860075);
  EXPECT_EQ(r.meanApl, 31.979298232502522);
  EXPECT_EQ(r.run.cyclesRun, 22088u);
  EXPECT_EQ(r.run.packetsCreated, 88556u);
  EXPECT_EQ(r.run.packetsDelivered, 88428u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

// ---- Campaign-level resume ------------------------------------------------

/// The first two cells of the fig09 RO_RR row (p = 0, 25): same
/// campaignSeed and cell order as the full fig09 campaign, so the cells
/// derive the seed-campaign seeds.
campaign::CampaignSpec fig09TwoCells() {
  campaign::CampaignSpec spec;
  spec.name = "fig09cont";
  spec.campaignSeed = 1;
  for (const int p : {0, 25}) {
    campaign::CampaignCell cell;
    cell.key = "RO_RR/p" + std::to_string(p);
    cell.labels = {{"scheme", "RO_RR"}, {"p", std::to_string(p)}};
    cell.run = [p](const campaign::CellContext& ctx) {
      Mesh mesh(8, 8);
      const RegionMap regions = RegionMap::halves(mesh);
      ScenarioSpec spec =
          fig09Spec(mesh, regions, p / 100.0, schemeRoRr(), ctx.seed);
      return runScenario(ctx.applyTo(spec));
    };
    spec.add(std::move(cell));
  }
  return spec;
}

std::vector<std::string> canonicalLines(
    const std::vector<campaign::CellRecord>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs)
    lines.push_back(r.toJsonLine(/*includeVolatile=*/false));
  return lines;
}

/// Fabricates the "interrupted campaign" state: a mid-window checkpoint
/// for every cell, at the per-cell path the runner will derive.
std::vector<std::string> writeCellCheckpoints(const std::string& dir) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  EXPECT_TRUE(snapshot::ensureDir(dir));
  std::vector<std::string> paths;
  int index = 0;
  for (const int p : {0, 25}) {
    const ScenarioSpec spec =
        fig09Spec(mesh, regions, p / 100.0, schemeRoRr(),
                  campaign::cellSeed(1, index++));
    const std::string path =
        dir + "/" + snapshot::checkpointFileName(snapshot::fullStateKey(spec));
    EXPECT_TRUE(writeScenarioCheckpoint(spec, kMidWindow, path));
    paths.push_back(path);
  }
  return paths;
}

TEST(Continuation, ResumedCampaignMatchesStraightRunAtAnyWorkerCount) {
  const campaign::CampaignSpec spec = fig09TwoCells();
  const std::string dir = ::testing::TempDir() + "rair_cont_campaign";

  campaign::RunnerOptions plain;
  plain.jobs = 1;
  const auto straight = campaign::runCampaign(spec, plain);
  ASSERT_EQ(straight.records.size(), 2u);

  // Tie this test to the recorded seed-campaign trajectory, not merely to
  // itself.
  EXPECT_EQ(straight.records[0].seed, 10451216379200822465ull);
  ASSERT_EQ(straight.records[0].appApl.size(), 2u);
  EXPECT_EQ(straight.records[0].appApl[0], 23.313518113299295);
  EXPECT_EQ(straight.records[0].cyclesRun, 22062u);

  for (const int jobs : {1, 4}) {
    const auto paths = writeCellCheckpoints(dir);
    campaign::RunnerOptions resume;
    resume.jobs = jobs;
    resume.cell.snap.checkpointDir = dir;
    const auto resumed = campaign::runCampaign(spec, resume);
    EXPECT_EQ(canonicalLines(resumed.records), canonicalLines(straight.records))
        << "jobs=" << jobs;
    // Every cell consumed (and then deleted) its checkpoint.
    for (const auto& p : paths)
      EXPECT_FALSE(snapshot::readSnapshotFile(p).has_value()) << p;
  }
}

}  // namespace
}  // namespace rair

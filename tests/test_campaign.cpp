#include "campaign/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "campaign/store.h"
#include "scenarios/parsec_scenario.h"
#include "sim/scheme.h"

namespace rair::campaign {
namespace {

// A tiny but real campaign: 2 schemes x 2 load points on a 4x4 halves
// mesh with sub-second windows. Cells are pure functions of the seed, as
// the runner requires.
CampaignSpec smallSpec() {
  static const Mesh mesh(4, 4);
  static const RegionMap regions = RegionMap::halves(mesh);
  SimConfig cfg;
  cfg.warmupCycles = 200;
  cfg.measureCycles = 1'000;
  cfg.drainLimit = 20'000;

  CampaignSpec spec;
  spec.name = "unit";
  spec.campaignSeed = 7;
  for (const SchemeSpec& scheme : {schemeRoRr(), schemeRaRair()}) {
    for (const char* load : {"low", "mid"}) {
      const double rate = load[0] == 'l' ? 0.05 : 0.15;
      std::vector<AppTrafficSpec> apps(2);
      apps[0].app = 0;
      apps[0].injectionRate = rate;
      apps[1].app = 1;
      apps[1].injectionRate = rate;
      spec.add(scheme.label + "/" + load,
               {{"scheme", scheme.label}, {"load", load}},
               ScenarioSpec(mesh, regions)
                   .withConfig(cfg)
                   .withScheme(scheme)
                   .withApps(std::move(apps)));
    }
  }
  return spec;
}

std::vector<std::string> canonicalLines(const std::vector<CellRecord>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs) lines.push_back(r.toJsonLine(/*includeVolatile=*/false));
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string freshTempFile(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(CellSeed, DeterministicAndDistinct) {
  EXPECT_EQ(cellSeed(1, 0), cellSeed(1, 0));
  EXPECT_NE(cellSeed(1, 0), cellSeed(1, 1));
  EXPECT_NE(cellSeed(1, 0), cellSeed(2, 0));
  // The SplitMix64 finalizer never yields the all-zero state xoshiro
  // cannot escape from.
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NE(cellSeed(0, i), 0u);
}

TEST(CellRecord, JsonRoundTrip) {
  CellRecord rec;
  rec.campaign = "unit";
  rec.key = "RA_RAIR/mid";
  rec.labels = {{"scheme", "RA_RAIR"}, {"load", "mid"}};
  rec.seed = 0xDEADBEEFDEADBEEFull;  // must survive despite double JSON numbers
  rec.termination = Termination::ProgressTimeout;
  rec.cyclesRun = 12'345;
  rec.packetsCreated = 678;
  rec.packetsDelivered = 599;
  rec.deliveredFlitRate = 0.0625;
  rec.appApl = {23.125, 31.5};
  rec.meanApl = 27.75;
  rec.wallMs = 41.5;

  const auto parsed = CellRecord::fromJsonLine(rec.toJsonLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->campaign, rec.campaign);
  EXPECT_EQ(parsed->key, rec.key);
  EXPECT_EQ(parsed->labels, rec.labels);
  EXPECT_EQ(parsed->seed, rec.seed);
  EXPECT_EQ(parsed->termination, Termination::ProgressTimeout);
  EXPECT_EQ(parsed->cyclesRun, rec.cyclesRun);
  EXPECT_EQ(parsed->packetsCreated, rec.packetsCreated);
  EXPECT_EQ(parsed->packetsDelivered, rec.packetsDelivered);
  EXPECT_DOUBLE_EQ(parsed->deliveredFlitRate, rec.deliveredFlitRate);
  ASSERT_EQ(parsed->appApl.size(), rec.appApl.size());
  EXPECT_DOUBLE_EQ(parsed->appApl[0], rec.appApl[0]);
  EXPECT_DOUBLE_EQ(parsed->appApl[1], rec.appApl[1]);
  EXPECT_DOUBLE_EQ(parsed->meanApl, rec.meanApl);
  EXPECT_DOUBLE_EQ(parsed->wallMs, rec.wallMs);
  // Serializing the parsed record reproduces the original bytes.
  EXPECT_EQ(parsed->toJsonLine(), rec.toJsonLine());
  // The canonical form drops the volatile wall time.
  EXPECT_EQ(rec.toJsonLine(false).find("wall_ms"), std::string::npos);
  EXPECT_NE(rec.toJsonLine(true).find("wall_ms"), std::string::npos);
}

TEST(CellRecord, MetricsBlockRoundTripsAndStaysOptional) {
  CellRecord rec;
  rec.campaign = "unit";
  rec.key = "RA_RAIR/mid";
  rec.seed = 42;
  rec.cyclesRun = 1'000;
  rec.appApl = {10.0};
  // Default level: no metrics block, and none serialized -- the byte
  // identity of default campaign records depends on this.
  EXPECT_EQ(rec.toJsonLine().find("\"metrics\""), std::string::npos);
  const auto plain = CellRecord::fromJsonLine(rec.toJsonLine());
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->metrics.has_value());

  CellMetrics m;
  m.vaGrantsNative = 1'000'000'000'001ull;  // > 2^32: must survive JSON
  m.vaGrantsForeign = 17;
  m.saGrantsNative = 23;
  m.saGrantsForeign = 5;
  m.escapeAllocations = 7;
  m.flitsTraversed = 28;
  m.dpaFlips = 3;
  rec.metrics = m;
  const std::string line = rec.toJsonLine();
  EXPECT_NE(line.find("\"metrics\""), std::string::npos);
  const auto parsed = CellRecord::fromJsonLine(line);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->metrics.has_value());
  EXPECT_EQ(parsed->metrics->vaGrantsNative, m.vaGrantsNative);
  EXPECT_EQ(parsed->metrics->vaGrantsForeign, m.vaGrantsForeign);
  EXPECT_EQ(parsed->metrics->saGrantsNative, m.saGrantsNative);
  EXPECT_EQ(parsed->metrics->saGrantsForeign, m.saGrantsForeign);
  EXPECT_EQ(parsed->metrics->escapeAllocations, m.escapeAllocations);
  EXPECT_EQ(parsed->metrics->flitsTraversed, m.flitsTraversed);
  EXPECT_EQ(parsed->metrics->dpaFlips, m.dpaFlips);
  // Re-serializing reproduces the original bytes.
  EXPECT_EQ(parsed->toJsonLine(), line);
}

TEST(CellRecord, FaultBlockRoundTripsAndStaysOptional) {
  CellRecord rec;
  rec.campaign = "unit";
  rec.key = "RA_RAIR/outage";
  rec.seed = 42;
  rec.cyclesRun = 1'000;
  rec.appApl = {10.0};
  // Fault-free cells must not grow a fault block -- record byte identity
  // with pre-fault-subsystem campaigns depends on this.
  EXPECT_EQ(rec.toJsonLine().find("\"fault\""), std::string::npos);
  const auto plain = CellRecord::fromJsonLine(rec.toJsonLine());
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->fault.has_value());

  fault::FaultStats fs;
  fs.eventsApplied = 4;
  fs.droppedPackets = 1'000'000'000'001ull;  // > 2^32: must survive JSON
  fs.droppedFlits = 55;
  fs.reroutes = 12;
  fs.unreachablePairs = 30;
  fs.degradedCycles = 2'000;
  fs.recoveryCycles = 3'000;
  rec.fault = fs;
  const std::string line = rec.toJsonLine();
  EXPECT_NE(line.find("\"fault\""), std::string::npos);
  const auto parsed = CellRecord::fromJsonLine(line);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->fault.has_value());
  EXPECT_EQ(parsed->fault->eventsApplied, fs.eventsApplied);
  EXPECT_EQ(parsed->fault->droppedPackets, fs.droppedPackets);
  EXPECT_EQ(parsed->fault->droppedFlits, fs.droppedFlits);
  EXPECT_EQ(parsed->fault->reroutes, fs.reroutes);
  EXPECT_EQ(parsed->fault->unreachablePairs, fs.unreachablePairs);
  EXPECT_EQ(parsed->fault->degradedCycles, fs.degradedCycles);
  EXPECT_EQ(parsed->fault->recoveryCycles, fs.recoveryCycles);
  EXPECT_EQ(parsed->toJsonLine(), line);
}

TEST(CellRecord, ReductionAgainstEmptyBaselineIsZeroNotNan) {
  CellRecord base, mine;
  base.appApl = {0.0, 40.0};
  base.meanApl = 0.0;
  mine.appApl = {30.0, 36.0};
  mine.meanApl = 33.0;
  EXPECT_EQ(mine.reductionVs(base, 0), 0.0);
  EXPECT_NEAR(mine.reductionVs(base, 1), 0.10, 1e-12);
  EXPECT_EQ(mine.meanReductionVs(base), 0.0);
}

TEST(CellRecord, RejectsNonCellLines) {
  EXPECT_FALSE(CellRecord::fromJsonLine("not json").has_value());
  EXPECT_FALSE(CellRecord::fromJsonLine("{\"type\":\"value\"}").has_value());
  EXPECT_FALSE(CellRecord::fromJsonLine("{}").has_value());
}

TEST(Store, ValueAndCellRecordsRoundTripThroughFile) {
  const std::string path = freshTempFile("rair_store_roundtrip.jsonl");

  CellRecord rec;
  rec.campaign = "unit";
  rec.key = "cell-a";
  rec.seed = 11;
  rec.termination = Termination::Drained;
  rec.appApl = {10.0};
  rec.meanApl = 10.0;
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.enabled());
    writer.writeLine(valueJsonLine("unit", "cal/knee", 0.38125));
    writer.writeLine(rec.toJsonLine());
    writer.writeLine("garbage that must be skipped, not fatal");
  }

  const CampaignFileData data = loadCampaignFile(path);
  ASSERT_EQ(data.values.count("cal/knee"), 1u);
  EXPECT_DOUBLE_EQ(data.values.at("cal/knee"), 0.38125);
  ASSERT_EQ(data.cells.count("cell-a"), 1u);
  const CellRecord& loaded = data.cells.at("cell-a");
  EXPECT_TRUE(loaded.fromCache);
  EXPECT_EQ(loaded.seed, 11u);
  EXPECT_TRUE(loaded.drained());

  // A missing file is empty data, not an error.
  const auto none = loadCampaignFile(freshTempFile("rair_store_missing.jsonl"));
  EXPECT_TRUE(none.cells.empty());
  EXPECT_TRUE(none.values.empty());
  std::remove(path.c_str());
}

// Satellite: the headline determinism guarantee. The same campaign run
// serially and on a 4-thread pool must yield byte-identical canonical
// records — seeds depend only on (campaignSeed, cellIndex), never on the
// worker that picked the cell up or the completion order.
TEST(Runner, ParallelMatchesSerial) {
  const CampaignSpec spec = smallSpec();

  RunnerOptions serial;
  serial.jobs = 1;
  const CampaignSummary one = runCampaign(spec, serial);

  RunnerOptions pooled;
  pooled.jobs = 4;
  const CampaignSummary four = runCampaign(spec, pooled);

  ASSERT_EQ(one.records.size(), spec.cells.size());
  ASSERT_EQ(four.records.size(), spec.cells.size());
  EXPECT_EQ(one.executed, spec.cells.size());
  EXPECT_EQ(four.executed, spec.cells.size());
  EXPECT_EQ(canonicalLines(one.records), canonicalLines(four.records));
  for (const CellRecord& r : one.records) {
    EXPECT_TRUE(r.drained()) << r.key;
    EXPECT_FALSE(r.fromCache);
  }
}

TEST(Runner, RecordsFollowSpecOrderAndSeeds) {
  const CampaignSpec spec = smallSpec();
  RunnerOptions opts;
  opts.jobs = 2;
  const CampaignSummary summary = runCampaign(spec, opts);
  ASSERT_EQ(summary.records.size(), spec.cells.size());
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_EQ(summary.records[i].key, spec.cells[i].key);
    EXPECT_EQ(summary.records[i].seed, cellSeed(spec.campaignSeed, i));
    EXPECT_EQ(summary.records[i].campaign, spec.name);
  }
  EXPECT_EQ(summary.lookup().size(), spec.cells.size());
}

TEST(Runner, ResumeExecutesNothingOnSecondRun) {
  const CampaignSpec spec = smallSpec();
  const std::string path = freshTempFile("rair_resume.jsonl");

  RunnerOptions opts;
  opts.jobs = 2;
  opts.outPath = path;
  const CampaignSummary first = runCampaign(spec, opts);
  EXPECT_EQ(first.executed, spec.cells.size());
  EXPECT_EQ(first.skipped, 0u);

  const CampaignSummary second = runCampaign(spec, opts);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.skipped, spec.cells.size());
  for (const CellRecord& r : second.records) EXPECT_TRUE(r.fromCache);

  // Cached results are the executed results, bit for bit.
  EXPECT_EQ(canonicalLines(first.records), canonicalLines(second.records));
  std::remove(path.c_str());
}

TEST(Runner, PartialResumeRunsOnlyMissingCells) {
  const CampaignSpec full = smallSpec();
  CampaignSpec half = smallSpec();
  half.cells.resize(2);

  const std::string path = freshTempFile("rair_partial_resume.jsonl");
  RunnerOptions opts;
  opts.jobs = 2;
  opts.outPath = path;
  const CampaignSummary seeded = runCampaign(half, opts);
  EXPECT_EQ(seeded.executed, 2u);

  const CampaignSummary rest = runCampaign(full, opts);
  EXPECT_EQ(rest.skipped, 2u);
  EXPECT_EQ(rest.executed, full.cells.size() - 2);
  ASSERT_EQ(rest.records.size(), full.cells.size());
  EXPECT_TRUE(rest.records[0].fromCache);
  EXPECT_FALSE(rest.records[2].fromCache);

  // resume = false re-executes everything regardless of the file.
  RunnerOptions fresh = opts;
  fresh.outPath.clear();
  fresh.resume = false;
  EXPECT_EQ(runCampaign(full, fresh).executed, full.cells.size());
  std::remove(path.c_str());
}

TEST(Runner, ResumeAfterCutOffLastRecordLeavesEveryLineParseable) {
  const CampaignSpec spec = smallSpec();
  const std::string path = freshTempFile("rair_cut_resume.jsonl");
  RunnerOptions opts;
  opts.jobs = 2;
  opts.outPath = path;
  const CampaignSummary first = runCampaign(spec, opts);

  // Cut the file in the middle of its last record, as a crash would.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(text.back(), '\n');
  const std::size_t lastStart = text.rfind('\n', text.size() - 2) + 1;
  const std::string cutKey =
      CellRecord::fromJsonLine(text.substr(lastStart))->key;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, lastStart + (text.size() - lastStart) / 2);
  }

  const CampaignSummary second = runCampaign(spec, opts);
  EXPECT_EQ(second.executed, 1u);
  EXPECT_EQ(canonicalLines(second.records), canonicalLines(first.records));

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0, cutKeyRecords = 0;
  while (std::getline(in, line)) {
    ++lines;
    const auto rec = CellRecord::fromJsonLine(line);
    ASSERT_TRUE(rec.has_value()) << "unparseable line " << lines;
    if (rec->key == cutKey) ++cutKeyRecords;
  }
  EXPECT_EQ(lines, spec.cells.size());
  EXPECT_EQ(cutKeyRecords, 1u);
  std::remove(path.c_str());
}

TEST(Runner, TripwiredCellIsRecordedNotFatal) {
  CampaignSpec spec;
  spec.name = "unit_trip";
  CampaignCell ok;
  ok.key = "ok";
  ok.run = [](const CellContext&) {
    ScenarioResult r;
    r.appApl = {10.0};
    r.meanApl = 10.0;
    r.run.termination = Termination::Drained;
    r.run.fullyDrained = true;
    return r;
  };
  spec.add(std::move(ok));
  CampaignCell stuck;
  stuck.key = "stuck";
  stuck.run = [](const CellContext&) {
    ScenarioResult r;
    r.appApl = {1e9};
    r.meanApl = 1e9;
    r.run.termination = Termination::ProgressTimeout;
    r.run.cyclesRun = 123;
    return r;
  };
  spec.add(std::move(stuck));

  RunnerOptions opts;
  opts.jobs = 2;
  const CampaignSummary summary = runCampaign(spec, opts);
  ASSERT_EQ(summary.records.size(), 2u);
  EXPECT_EQ(summary.tripwired, 1u);
  EXPECT_EQ(summary.records[0].termination, Termination::Drained);
  EXPECT_EQ(summary.records[1].termination, Termination::ProgressTimeout);
  EXPECT_EQ(summary.records[1].cyclesRun, 123u);
}

// The runner is the one place campaign-wide settings reach a cell: a
// synthetic cell and a PARSEC request/reply cell both pick up its metrics
// level, per-cell sink prefix and fault plan, and neither carries a block
// it was not asked for.
TEST(Runner, MetricsAndFaultsReachEveryCell) {
  const Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::quadrants(mesh);
  SimConfig cfg;
  cfg.warmupCycles = 100;
  cfg.measureCycles = 400;
  cfg.drainLimit = 20'000;

  CampaignSpec spec;
  spec.name = "reach";
  std::vector<AppTrafficSpec> apps(4);
  for (AppId a = 0; a < 4; ++a) {
    apps[static_cast<std::size_t>(a)].app = a;
    apps[static_cast<std::size_t>(a)].injectionRate = 0.05;
  }
  spec.add("synthetic/RO_RR", {},
           ScenarioSpec(mesh, regions)
               .withConfig(cfg)
               .withScheme(schemeRoRr())
               .withApps(std::move(apps)));
  spec.add("parsec/RA_RAIR", {},
           ScenarioSpec(mesh, regions)
               .withConfig(cfg)
               .withScheme(schemeRaRair())
               .withParsecApps(scenarios::fig16Benchmarks()));

  const std::string prefix = ::testing::TempDir() + "rair_reach_";
  RunnerOptions opts;
  opts.jobs = 2;
  opts.cell.metrics.level = metrics::MetricsLevel::Summary;
  opts.cell.metrics.outPrefix = prefix;
  opts.cell.faults.creditLoss(200, mesh.nodeAt({1, 1}), Dir::East, 1, 1);
  for (const char* key : {"synthetic_RO_RR", "parsec_RA_RAIR"})
    std::remove((prefix + "reach_" + key + ".summary.json").c_str());
  const CampaignSummary instrumented = runCampaign(spec, opts);
  ASSERT_EQ(instrumented.records.size(), 2u);
  for (const CellRecord& r : instrumented.records) {
    EXPECT_TRUE(r.drained()) << r.key;
    EXPECT_TRUE(r.metrics.has_value()) << r.key;
    ASSERT_TRUE(r.fault.has_value()) << r.key;
    EXPECT_EQ(r.fault->eventsApplied, 1u) << r.key;
  }
  for (const char* key : {"synthetic_RO_RR", "parsec_RA_RAIR"})
    EXPECT_TRUE(std::ifstream(prefix + "reach_" + key + ".summary.json"))
        << key;

  const CampaignSummary plain = runCampaign(spec, RunnerOptions{});
  ASSERT_EQ(plain.records.size(), 2u);
  for (const CellRecord& r : plain.records) {
    EXPECT_FALSE(r.metrics.has_value()) << r.key;
    EXPECT_FALSE(r.fault.has_value()) << r.key;
  }
}

TEST(Builtin, EveryCampaignRendersItsTables) {
  // Calibration stubbed to a fixed rate (fn is never called) and tiny
  // windows run every cell of every built-in campaign cheaply. A renderer
  // that looks up a key its campaign does not define aborts in
  // CellLookup::at.
  for (const std::string& name : builtinCampaignNames()) {
    SCOPED_TRACE(name);
    BuildContext ctx = defaultBuildContext(true);
    ctx.sim.warmupCycles = 100;
    ctx.sim.measureCycles = 400;
    ctx.sim.drainLimit = 2'000;
    ctx.value = [](const std::string&, const std::function<double()>&) {
      return 0.1;
    };
    const CampaignSpec spec = buildBuiltinCampaign(name, ctx);
    EXPECT_EQ(spec.name, name);
    std::set<std::string> keys;
    for (const CampaignCell& c : spec.cells) {
      EXPECT_TRUE(keys.insert(c.key).second) << c.key;
      EXPECT_TRUE(c.spec.has_value()) << c.key;
    }
    ASSERT_FALSE(spec.cells.empty());
    ASSERT_TRUE(spec.renderTables);

    RunnerOptions opts;
    opts.jobs = 2;
    const CampaignSummary summary = runCampaign(spec, opts);
    EXPECT_EQ(summary.records.size(), spec.cells.size());
    EXPECT_FALSE(spec.renderTables(summary.lookup()).empty());
  }
}

TEST(Termination, NamesRoundTrip) {
  for (Termination t : {Termination::Drained, Termination::DrainLimit,
                        Termination::ProgressTimeout,
                        Termination::AboveKnee}) {
    const auto back = terminationFromName(terminationName(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(terminationFromName("exploded").has_value());
}

}  // namespace
}  // namespace rair::campaign

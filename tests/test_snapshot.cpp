// Snapshot subsystem: serialization primitives, per-subsystem round
// trips, whole-simulator save/restore stability, the divergence bisector,
// and the warm-state cache / checkpoint flows of runScenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metrics/histogram.h"
#include "packet/pool.h"
#include "sim/scenario.h"
#include "snapshot/bisect.h"
#include "snapshot/buffer.h"
#include "snapshot/scenario_key.h"
#include "snapshot/state_file.h"
#include "stats/stats.h"
#include "sim_test_util.h"

namespace rair {
namespace {

TEST(SnapshotBuffer, PrimitiveRoundTrip) {
  snapshot::Writer w;
  w.beginSection("prims");
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-12345);
  w.i64(-9876543210ll);
  w.f64(3.14159265358979);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  const std::uint8_t raw[3] = {1, 2, 3};
  w.bytes(raw, sizeof raw);
  w.endSection();

  snapshot::Reader r(w.payload());
  r.beginSection("prims");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.i64(), -9876543210ll);
  EXPECT_EQ(r.f64(), 3.14159265358979);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  std::uint8_t out[3] = {};
  r.bytes(out, sizeof out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  r.endSection();
  EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotBuffer, ListSectionsWalksFraming) {
  snapshot::Writer w;
  w.beginSection("alpha");
  w.u32(1);
  w.endSection();
  w.beginSection("beta");
  w.u64(2);
  w.u8(3);
  w.endSection();
  const auto sections = snapshot::listSections(w.payload());
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "alpha");
  EXPECT_EQ(sections[0].size, 4u);
  EXPECT_EQ(sections[1].name, "beta");
  EXPECT_EQ(sections[1].size, 9u);
}

TEST(SnapshotBuffer, FirstDifferingSectionNamesTheSection) {
  auto make = [](std::uint32_t a, std::uint32_t b) {
    snapshot::Writer w;
    w.beginSection("one");
    w.u32(a);
    w.endSection();
    w.beginSection("two");
    w.u32(b);
    w.endSection();
    return w.payload();
  };
  EXPECT_EQ(snapshot::firstDifferingSection(make(1, 2), make(1, 2)), "");
  EXPECT_EQ(snapshot::firstDifferingSection(make(1, 2), make(1, 3)), "two");
  EXPECT_EQ(snapshot::firstDifferingSection(make(1, 2), make(9, 3)), "one");
}

TEST(SnapshotFile, RoundTripAndCorruptionRejected) {
  const std::string path = ::testing::TempDir() + "rair_snapfile_test.snap";

  snapshot::Writer w;
  w.beginSection("s");
  w.u64(42);
  w.endSection();
  snapshot::SnapshotHeader hdr;
  hdr.stateVersion = snapshot::kStateVersion;
  hdr.scenarioKey = 0x1122334455667788ull;
  hdr.cycle = 777;
  ASSERT_TRUE(snapshot::writeSnapshotFile(path, hdr, w.payload()));

  const auto loaded = snapshot::readSnapshotFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.stateVersion, snapshot::kStateVersion);
  EXPECT_EQ(loaded->header.scenarioKey, 0x1122334455667788ull);
  EXPECT_EQ(loaded->header.cycle, 777u);
  EXPECT_EQ(loaded->payload, w.payload());

  // Flip one payload byte on disk: the hash check must reject the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  EXPECT_FALSE(snapshot::readSnapshotFile(path).has_value());

  // Missing file.
  snapshot::removeFile(path);
  EXPECT_FALSE(snapshot::readSnapshotFile(path).has_value());

  // Not a snapshot at all.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a snapshot", f);
    std::fclose(f);
  }
  EXPECT_FALSE(snapshot::readSnapshotFile(path).has_value());
  snapshot::removeFile(path);
}

TEST(SnapshotFile, ConcurrentWritersOfOnePathLeaveAWholeFile) {
  // Two campaigns sharing a warm-cache directory can store the same key
  // at once. Each writer must go through its own temp file, so the final
  // file is one writer's whole snapshot, never an interleaving.
  const std::string dir = ::testing::TempDir() + "rair_snapfile_writers";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(snapshot::ensureDir(dir));
  const std::string path = dir + "/shared.snap";
  constexpr int kWriters = 4;
  std::vector<std::vector<std::uint8_t>> payloads(kWriters);
  for (int t = 0; t < kWriters; ++t)
    payloads[static_cast<std::size_t>(t)].assign(
        std::size_t{1} << 18, static_cast<std::uint8_t>(t + 1));
  std::atomic<int> failed{0};
  {
    std::vector<std::jthread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        snapshot::SnapshotHeader hdr;
        hdr.stateVersion = snapshot::kStateVersion;
        hdr.scenarioKey = 7;
        for (int i = 0; i < 20; ++i)
          if (!snapshot::writeSnapshotFile(
                  path, hdr, payloads[static_cast<std::size_t>(t)]))
            ++failed;
      });
    }
  }
  EXPECT_EQ(failed.load(), 0);
  const auto loaded = snapshot::readSnapshotFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), loaded->payload),
            payloads.end());
  // Every temp file was renamed into place.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator{}),
            1);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotRng, RestoredStateReplaysDraws) {
  Xoshiro256StarStar rng(12345);
  for (int i = 0; i < 100; ++i) rng();  // advance into the sequence
  const auto saved = rng.state();

  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(rng());
  const double expectedReal = rng.real();

  Xoshiro256StarStar replay(999);  // different seed: state fully overwritten
  replay.setState(saved);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(replay(), expected[i]);
  EXPECT_EQ(replay.real(), expectedReal);
}

TEST(SnapshotPool, RestoredPoolReplaysIdSequence) {
  PacketPool a(8);
  std::vector<PacketId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(a.acquire().id);
  // Release out of order: free-list order is behavioural state.
  a.release(ids[4]);
  a.release(ids[1]);
  a.release(ids[2]);

  snapshot::Writer w;
  a.save(w);

  PacketPool b(8);
  snapshot::Reader r(w.payload());
  b.restore(r);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(b.inFlight(), a.inFlight());
  for (const PacketId id : {ids[0], ids[3], ids[5]}) {
    EXPECT_TRUE(b.isLive(id));
    EXPECT_EQ(b.get(id).id, id);
  }

  // Both pools must hand out the exact same future id sequence
  // (generation tags bumped, LIFO free-list order preserved).
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.acquire().id, b.acquire().id);
}

TEST(SnapshotPool, SaveRestoreSaveIsByteStable) {
  PacketPool a(4);
  std::vector<PacketId> ids;
  for (int i = 0; i < 5; ++i) {
    Packet& p = a.acquire();
    p.src = i;
    p.dst = i + 1;
    ids.push_back(p.id);
  }
  a.release(ids[2]);  // dead slot retains stale contents in `a`

  snapshot::Writer w1;
  a.save(w1);
  PacketPool b(4);
  snapshot::Reader r(w1.payload());
  b.restore(r);
  snapshot::Writer w2;
  b.save(w2);
  EXPECT_EQ(w1.payload(), w2.payload());
}

TEST(SnapshotHistogram, RawStateRoundTrip) {
  metrics::Histogram h;
  h.record(3.0);
  h.record(250.0);
  h.record(17.5);

  metrics::Histogram g;
  g.setRawState(h.rawState());
  EXPECT_EQ(g.count(), h.count());
  EXPECT_EQ(g.mean(), h.mean());

  // Empty histogram: the min/max infinity sentinels must survive.
  metrics::Histogram empty;
  metrics::Histogram restored;
  restored.setRawState(empty.rawState());
  EXPECT_EQ(restored.count(), 0u);
  restored.record(5.0);
  EXPECT_EQ(restored.min(), 5.0);
  EXPECT_EQ(restored.max(), 5.0);
}

TEST(SnapshotStats, RoundTripPreservesMeasurement) {
  StatsCollector a(2);
  a.startMeasurement(100);
  a.stopMeasurement(200);
  Packet p;
  p.app = 1;
  p.createCycle = 150;
  p.injectCycle = 152;
  p.ejectCycle = 170;
  p.numFlits = 4;
  p.hops = 6;
  a.onPacketCreated(p);
  a.onPacketDelivered(p);

  snapshot::Writer w;
  a.save(w);
  StatsCollector b(2);
  snapshot::Reader r(w.payload());
  b.restore(r);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(b.measuredInFlight(), 0u);
  EXPECT_EQ(b.appApl(1), a.appApl(1));
  EXPECT_EQ(b.app(1).packetsDelivered, 1u);
  EXPECT_TRUE(b.inMeasurementWindow(150));
  EXPECT_FALSE(b.inMeasurementWindow(250));
}

// ---- Whole-simulator snapshots -------------------------------------------

ScenarioSpec twoAppSpec(const Mesh& mesh, const RegionMap& regions,
                        const SchemeSpec& scheme) {
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
      .withScheme(scheme)
      .withApps(std::move(apps))
      .withSeed(42);
}

std::vector<std::uint8_t> payloadOf(const Simulator& sim) {
  snapshot::Writer w;
  sim.save(w);
  return w.payload();
}

TEST(SnapshotSim, SaveRestoreSaveIsByteStable) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = twoAppSpec(mesh, regions, schemeRaRair());

  AssembledScenario a = assembleScenario(spec);
  a.sim->begin();
  while (a.sim->now() < 500) a.sim->stepCycle();
  const auto saved = payloadOf(*a.sim);

  AssembledScenario b = assembleScenario(spec);
  snapshot::Reader r(saved);
  b.sim->restore(r);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(b.sim->now(), 500u);
  EXPECT_EQ(payloadOf(*b.sim), saved);
}

TEST(SnapshotSim, BisectFindsNoDivergenceUnderRoRr) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const auto r = snapshot::bisectDivergence(
      twoAppSpec(mesh, regions, schemeRoRr()), 200, 700);
  EXPECT_FALSE(r.diverged) << "diverged at cycle " << r.firstDivergentCycle
                           << " in section " << r.section;
}

TEST(SnapshotSim, BisectFindsNoDivergenceUnderRaRair) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const auto r = snapshot::bisectDivergence(
      twoAppSpec(mesh, regions, schemeRaRair()), 200, 700);
  EXPECT_FALSE(r.diverged) << "diverged at cycle " << r.firstDivergentCycle
                           << " in section " << r.section;
}

TEST(SnapshotSim, BisectCatchesADivergenceThatHealsBeforeTheHorizon) {
  // A restored run whose `sim` section differs in lastProgress_ alone: the
  // next cycle with progress overwrites it, so by the horizon both runs
  // hold the same bytes again and a comparison there sees nothing. The
  // lockstep comparison reports the cycle and the section.
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = twoAppSpec(mesh, regions, schemeRaRair());
  constexpr Cycle kSnapAt = 300;
  constexpr Cycle kHorizon = 700;

  AssembledScenario straight = assembleScenario(spec);
  straight.sim->begin();
  while (straight.sim->now() < kSnapAt) straight.sim->stepCycle();
  std::vector<std::uint8_t> snap = payloadOf(*straight.sim);
  // lastProgress_ is the seventh u64 of the sim section (little-endian).
  for (const snapshot::SectionInfo& sec : snapshot::listSections(snap))
    if (sec.name == "sim") snap[sec.offset + 6 * 8] ^= 0x40;

  AssembledScenario restored = assembleScenario(spec);
  snapshot::Reader r(snap);
  restored.sim->restore(r);
  restored.sim->begin();
  const snapshot::BisectResult res =
      snapshot::firstDivergence(*straight.sim, *restored.sim, kHorizon);
  EXPECT_TRUE(res.diverged);
  EXPECT_EQ(res.firstDivergentCycle, kSnapAt);
  EXPECT_EQ(res.section, "sim");

  while (straight.sim->now() < kHorizon) {
    straight.sim->stepCycle();
    restored.sim->stepCycle();
  }
  EXPECT_TRUE(payloadOf(*straight.sim) == payloadOf(*restored.sim))
      << "the patched field should have healed by the horizon";
}

TEST(SnapshotSim, RestoreAtEveryCycleContinuesLikeTheStraightRun) {
  // Every cycle of a sparse run is saved,
  // restored into a fresh simulator and stepped once; its bytes must equal
  // the straight run's next cycle. At this load whole cycles pass with no
  // delivery, so the progress tripwire's bookkeeping must carry across
  // the restore.
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  ScenarioSpec spec = twoAppSpec(mesh, regions, schemeRaRair());
  spec.apps[0].injectionRate = 0.01;
  spec.apps[1].injectionRate = 0.02;
  AssembledScenario straight = assembleScenario(spec);
  straight.sim->begin();
  std::vector<std::uint8_t> before = payloadOf(*straight.sim);
  while (straight.sim->now() < 600) {
    const Cycle saved = straight.sim->now();
    straight.sim->stepCycle();
    const std::vector<std::uint8_t> after = payloadOf(*straight.sim);
    AssembledScenario resumed = assembleScenario(spec);
    snapshot::Reader r(before);
    resumed.sim->restore(r);
    resumed.sim->stepCycle();
    const std::vector<std::uint8_t> continued = payloadOf(*resumed.sim);
    ASSERT_TRUE(continued == after)
        << "restored at cycle " << saved << ", first differing section "
        << snapshot::firstDifferingSection(after, continued);
    before = after;
  }
}

// ---- Warm-state cache and checkpoints through runScenario ----------------

void expectSameResult(const ScenarioResult& x, const ScenarioResult& y) {
  EXPECT_EQ(x.appApl, y.appApl);
  EXPECT_EQ(x.meanApl, y.meanApl);
  EXPECT_EQ(x.run.cyclesRun, y.run.cyclesRun);
  EXPECT_EQ(x.run.packetsCreated, y.run.packetsCreated);
  EXPECT_EQ(x.run.packetsDelivered, y.run.packetsDelivered);
  EXPECT_EQ(x.run.termination, y.run.termination);
  EXPECT_EQ(x.run.flitHops, y.run.flitHops);
  EXPECT_EQ(x.run.deliveredFlitRate, y.run.deliveredFlitRate);
}

TEST(WarmCache, SecondRunRestoresCachedWarmupBitIdentically) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const std::string dir = ::testing::TempDir() + "rair_warm_cache_test";
  ScenarioSpec spec = twoAppSpec(mesh, regions, schemeRaRair());

  // Make the test independent of earlier runs on this machine (both the
  // main spec's warm entry and the seed-43 one stored at the end).
  snapshot::removeFile(
      snapshot::warmSnapshotPath(dir, snapshot::warmStateKey(spec)));
  snapshot::removeFile(snapshot::warmSnapshotPath(
      dir, snapshot::warmStateKey(ScenarioSpec(spec).withSeed(43))));
  snapshot::resetWarmCacheStats();

  const ScenarioResult baseline = runScenario(spec);

  const ScenarioResult cold = runScenario(spec.withWarmCache(dir));
  EXPECT_FALSE(cold.warmRestored);
  EXPECT_EQ(snapshot::warmCacheStats().misses, 1u);
  EXPECT_EQ(snapshot::warmCacheStats().stores, 1u);

  const ScenarioResult warm = runScenario(spec);
  EXPECT_TRUE(warm.warmRestored);
  EXPECT_EQ(snapshot::warmCacheStats().hits, 1u);
  EXPECT_EQ(snapshot::warmCacheStats().warmupCyclesSaved, 200u);

  expectSameResult(cold, baseline);
  expectSameResult(warm, baseline);

  // A different seed is a different warm key: no false sharing.
  const ScenarioResult other = runScenario(ScenarioSpec(spec).withSeed(43));
  EXPECT_FALSE(other.warmRestored);
}

TEST(Checkpoint, ResumeMidMeasurementIsBitIdentical) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  ScenarioSpec spec = twoAppSpec(mesh, regions, schemeRaRair());
  const std::string dir = ::testing::TempDir() + "rair_ckpt_test";
  const std::string path = testutil::checkpointPath(dir, spec);
  std::remove(path.c_str());

  const ScenarioResult straight = runScenario(spec);

  // Fabricate the interrupted run: checkpoint in the middle of the
  // measurement window (warmup 200, measure end 1200).
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 700, path));

  const ScenarioResult resumed =
      runScenario(testutil::checkpointingIn(spec, dir));
  EXPECT_EQ(resumed.resumedFromCycle, 700u);
  expectSameResult(resumed, straight);

  // The completed run removes its checkpoint.
  EXPECT_FALSE(snapshot::readSnapshotFile(path).has_value());
}

TEST(Checkpoint, ForeignKeyCheckpointIsIgnored) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  ScenarioSpec spec = twoAppSpec(mesh, regions, schemeRaRair());
  const std::string dir = ::testing::TempDir() + "rair_ckpt_foreign";
  const std::string path = testutil::checkpointPath(dir, spec);
  std::remove(path.c_str());
  ASSERT_TRUE(writeScenarioCheckpoint(spec, 700, path));

  // A different seed must not restore another run's checkpoint, even one
  // sitting under its own file name.
  ScenarioSpec other = twoAppSpec(mesh, regions, schemeRaRair());
  other.seed = 43;
  const std::string otherPath = testutil::checkpointPath(dir, other);
  std::filesystem::copy_file(
      path, otherPath, std::filesystem::copy_options::overwrite_existing);
  const ScenarioResult r = runScenario(testutil::checkpointingIn(other, dir));
  EXPECT_EQ(r.resumedFromCycle, 0u);
  std::remove(path.c_str());
  std::remove(otherPath.c_str());
}

TEST(SnapshotKeys, WarmKeyIgnoresMeasureWindowButFullKeyDoesNot) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  ScenarioSpec a = twoAppSpec(mesh, regions, schemeRaRair());
  ScenarioSpec b = twoAppSpec(mesh, regions, schemeRaRair());
  b.config.measureCycles = 5'000;

  // The warm-up trajectory does not depend on how long the measurement
  // window will be, so warm entries are shared across window lengths…
  EXPECT_EQ(snapshot::warmStateKey(a), snapshot::warmStateKey(b));
  // …but a mid-run checkpoint is specific to the exact run.
  EXPECT_NE(snapshot::fullStateKey(a), snapshot::fullStateKey(b));

  // Anything that shapes the warm-up state must change the warm key.
  ScenarioSpec c = twoAppSpec(mesh, regions, schemeRaRair());
  c.seed = 43;
  EXPECT_NE(snapshot::warmStateKey(a), snapshot::warmStateKey(c));
  ScenarioSpec d = twoAppSpec(mesh, regions, schemeRoRr());
  EXPECT_NE(snapshot::warmStateKey(a), snapshot::warmStateKey(d));
  ScenarioSpec e = twoAppSpec(mesh, regions, schemeRaRair());
  e.apps[1].injectionRate = 0.2;
  EXPECT_NE(snapshot::warmStateKey(a), snapshot::warmStateKey(e));

  // The scheme label is presentation, not state.
  ScenarioSpec f = twoAppSpec(mesh, regions, schemeRaRair());
  f.scheme.label = "renamed";
  EXPECT_EQ(snapshot::warmStateKey(a), snapshot::warmStateKey(f));
}

}  // namespace
}  // namespace rair

// Sharded-engine equivalence: the deterministic sharded cycle engine
// (sim/shard.h) must give the same bytes at every thread count, with one
// thread as the reference. The golden constants are the same recorded
// seed-implementation numbers test_equivalence.cpp pins — a sharded run
// is held to the exact same trajectory, not merely to a same-binary
// reference. Suite names all start with "Shard" so CI can select this
// subset for the ThreadSanitizer job with `ctest -R Shard`.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "scenarios/paper_scenarios.h"
#include "scenarios/parsec_scenario.h"
#include "sim/scenario.h"
#include "snapshot/bisect.h"
#include "snapshot/buffer.h"
#include "snapshot/checkpoint.h"
#include "sim/shard.h"
#include "sim/simulator.h"

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

void expectFig09Golden(const ScenarioResult& r) {
  ASSERT_EQ(r.appApl.size(), 2u);
  EXPECT_EQ(r.appApl[0], 23.313518113299295);
  EXPECT_EQ(r.appApl[1], 29.36873761982563);
  EXPECT_EQ(r.meanApl, 28.725103050821176);
  EXPECT_EQ(r.run.cyclesRun, 22062u);
  EXPECT_EQ(r.run.packetsCreated, 85324u);
  EXPECT_EQ(r.run.packetsDelivered, 85224u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

void expectFig12Golden(const ScenarioResult& r) {
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

// ---- Golden numbers at every thread count ---------------------------------

class ShardGolden : public ::testing::TestWithParam<int> {};

TEST_P(ShardGolden, Fig09RoRrP0MatchesSeedImplementation) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const auto r = runScenario(
      fig09Spec(mesh, regions, 0.0, schemeRoRr(), 10451216379200822465ull)
          .withThreads(GetParam()));
  expectFig09Golden(r);
}

TEST_P(ShardGolden, Fig12RaRairScenarioAMatchesRecordedGolden) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  const auto r = runScenario(
      fig12SpecA(mesh, regions, schemeRaRair(), 16184226688143867045ull)
          .withThreads(GetParam()));
  expectFig12Golden(r);
}

TEST_P(ShardGolden, Fig14RaRairMatchesRecordedGolden) {
  // Fast-window calibrated fig14 loads and the cell-3 (RA_RAIR) seed of
  // the full fig14 campaign (same constants as test_equivalence.cpp).
  constexpr double kFig14Rates[6] = {0.078179636889125367, 0.62591033746705327,
                                     0.14999999999999999,  0.15635927377825073,
                                     0.23453891066737606,  0.62591033746705327};
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::sixRegions(mesh);
  const std::vector<double> rates(kFig14Rates, kFig14Rates + 6);
  const auto apps = scenarios::sixAppMixed(PatternKind::UniformRandom, rates);
  const auto r = runScenario(ScenarioSpec(mesh, regions)
                                 .withScheme(schemeRaRair())
                                 .withApps(apps)
                                 .withSeed(8196980753821780235ull)
                                 .withFastWindows()
                                 .withThreads(GetParam()));
  ASSERT_EQ(r.appApl.size(), 6u);
  EXPECT_EQ(r.appApl[0], 21.290786948176585);
  EXPECT_EQ(r.appApl[1], 32.404580000000003);
  EXPECT_EQ(r.appApl[2], 21.113610657282894);
  EXPECT_EQ(r.appApl[3], 21.894479216819128);
  EXPECT_EQ(r.appApl[4], 22.057012113055183);
  EXPECT_EQ(r.appApl[5], 32.967497127653139);
  EXPECT_EQ(r.meanApl, 28.789471633416458);
  EXPECT_EQ(r.run.cyclesRun, 22051u);
  EXPECT_EQ(r.run.packetsCreated, 141596u);
  EXPECT_EQ(r.run.packetsDelivered, 141429u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardGolden, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return std::string("t").append(
                               std::to_string(info.param));
                         });

// ---- Request/reply trace golden -------------------------------------------

class ShardTraceGolden : public ::testing::TestWithParam<int> {};

/// The Fig. 16/17 PARSEC scenario on fast windows, seed 7.
ScenarioResult fig16Run(const SchemeSpec& scheme, int threads) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  return runScenario(ScenarioSpec(mesh, regions)
                         .withFastWindows()
                         .withScheme(scheme)
                         .withParsecApps(scenarios::fig16Benchmarks())
                         .withSeed(7)
                         .withThreads(threads));
}

TEST_P(ShardTraceGolden, Fig16RoRrRequestReplyMatchesRecordedGolden) {
  // The Fig. 16/17 PARSEC scenario: its delivery hook schedules every
  // reply. Recorded from the unfused single-threaded schedule, before
  // hooked runs moved onto the sharded engine.
  const ScenarioResult r = fig16Run(schemeRoRr(), GetParam());
  ASSERT_EQ(r.appApl.size(), 4u);
  EXPECT_EQ(r.appApl[0], 19.585480093676814);
  EXPECT_EQ(r.appApl[1], 19.820044988752812);
  EXPECT_EQ(r.appApl[2], 20.874155225154727);
  EXPECT_EQ(r.appApl[3], 21.661094773770831);
  EXPECT_EQ(r.run.cyclesRun, 22033u);
  EXPECT_EQ(r.run.packetsCreated, 42742u);
  EXPECT_EQ(r.run.packetsDelivered, 42720u);
  EXPECT_EQ(r.run.flitHops, 557258u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

TEST_P(ShardTraceGolden, Fig16RoRankRequestReplyMatchesRecordedGolden) {
  // RO_Rank ranks the applications by their requestRate x 6 flit
  // intensities. Recorded from the PARSEC scenario's former standalone
  // assembler.
  const ScenarioResult r = fig16Run(schemeRoRank(), GetParam());
  ASSERT_EQ(r.appApl.size(), 4u);
  EXPECT_EQ(r.appApl[0], 19.521467603434818);
  EXPECT_EQ(r.appApl[1], 19.755061234691325);
  EXPECT_EQ(r.appApl[2], 20.865760830902754);
  EXPECT_EQ(r.appApl[3], 21.761027704689678);
  EXPECT_EQ(r.run.cyclesRun, 22033u);
  EXPECT_EQ(r.run.packetsCreated, 42742u);
  EXPECT_EQ(r.run.packetsDelivered, 42720u);
  EXPECT_EQ(r.run.flitHops, 557258u);
  EXPECT_EQ(r.run.termination, Termination::Drained);
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardTraceGolden, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return std::string("t").append(
                               std::to_string(info.param));
                         });

// ---- Serialized-state byte equality ---------------------------------------
// Test names below that say "Legacy" keep their established ids; the
// reference they name is the one-thread run.

std::vector<std::uint8_t> serializedAfter(const ScenarioSpec& spec,
                                          Cycle cycles) {
  AssembledScenario as = assembleScenario(spec);
  as.sim->begin();
  while (as.sim->now() < cycles) as.sim->stepCycle();
  snapshot::Writer w;
  as.sim->save(w);
  return w.payload();
}

TEST(ShardState, SerializedStateMatchesLegacyByteForByte8x8) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 17911839290282890590ull);
  const auto t1 = serializedAfter(spec, 3000);
  for (const int threads : {2, 4, 8}) {
    const auto sharded =
        serializedAfter(ScenarioSpec(spec).withThreads(threads), 3000);
    EXPECT_TRUE(t1 == sharded) << "threads=" << threads << ": "
        << snapshot::firstDifferingSection(t1, sharded);
  }
}

TEST(ShardState, SerializedStateMatchesLegacyByteForByte16x16) {
  // 16x16: node counts that do not divide evenly across shards (256 / 3,
  // 256 / 7) exercise the remainder-distribution partitioning.
  Mesh mesh(16, 16);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.25, schemeRaRair(), 8196980753821780235ull);
  const auto t1 = serializedAfter(spec, 1500);
  for (const int threads : {3, 7, 8}) {
    const auto sharded =
        serializedAfter(ScenarioSpec(spec).withThreads(threads), 1500);
    EXPECT_TRUE(t1 == sharded) << "threads=" << threads << ": "
        << snapshot::firstDifferingSection(t1, sharded);
  }
}

// ---- Delivery hooks under the sharded engine ------------------------------

/// Records the exact onDelivery callback sequence. The staged NIC replay
/// (shard.h) promises the same observer callback order at every thread
/// count, which this pins directly — the golden tests above only see the
/// aggregated statistics.
struct DeliveryRecorder final : SimObserver {
  std::vector<std::pair<PacketId, Cycle>> seq;
  Cycle now = 0;
  void onCycleBegin(Cycle n) override { now = n; }
  void onDelivery(const Packet& p) override { seq.emplace_back(p.id, now); }
};

TEST(ShardObserver, DeliveryHookSequenceIdenticalAcrossThreadCounts) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 17911839290282890590ull);

  auto sequence = [&](int threads) {
    AssembledScenario as =
        assembleScenario(ScenarioSpec(spec).withThreads(threads));
    DeliveryRecorder rec;
    as.sim->observers().attach(&rec);
    as.sim->begin();
    while (as.sim->now() < 3000) as.sim->stepCycle();
    return rec.seq;
  };

  const auto t1 = sequence(1);
  ASSERT_FALSE(t1.empty());
  for (const int threads : {2, 4, 8})
    EXPECT_TRUE(t1 == sequence(threads)) << "threads=" << threads;
}

TEST(ShardObserver, HookedRunHitsGoldenAtOneAndFourThreads) {
  // A delivery hook runs on the coordinator during the staged replay, so
  // a hooked run takes the golden trajectory at every thread count.
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.0, schemeRoRr(), 10451216379200822465ull);

  auto runWithHook = [&](int threads) {
    AssembledScenario as =
        assembleScenario(ScenarioSpec(spec).withThreads(threads));
    std::uint64_t hookCalls = 0;
    as.sim->setDeliveryHook(
        [&hookCalls](const Packet&, InjectionSink&) { ++hookCalls; });
    const RunResult r = as.sim->run();
    return std::pair<RunResult, std::uint64_t>(r, hookCalls);
  };

  const auto [t1, t1Calls] = runWithHook(1);
  EXPECT_EQ(t1.packetsDelivered, 85224u);
  EXPECT_EQ(t1Calls, t1.packetsDelivered);
  const auto [t4, t4Calls] = runWithHook(4);
  EXPECT_EQ(t4.termination, t1.termination);
  EXPECT_EQ(t4.cyclesRun, t1.cyclesRun);
  EXPECT_EQ(t4.packetsCreated, t1.packetsCreated);
  EXPECT_EQ(t4.packetsDelivered, t1.packetsDelivered);
  EXPECT_EQ(t4Calls, t1Calls);
}

// ---- Oversubscribed fallback: more shards than nodes ----------------------

TEST(ShardFallback, MoreShardsThanNodesMatchesLegacyByteForByte) {
  // 4x4 mesh, 16 nodes, 24 shard threads: the remainder distribution
  // hands shards 16..23 empty node ranges, which must degrade to no-op
  // workers rather than skew the partition.
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 8042142155559163816ull);
  const auto t1 = serializedAfter(spec, 1000);
  const auto sharded =
      serializedAfter(ScenarioSpec(spec).withThreads(24), 1000);
  EXPECT_TRUE(t1 == sharded) << snapshot::firstDifferingSection(t1, sharded);
}

// ---- Campaign records across --shard-threads x --jobs ---------------------

std::vector<std::string> canonicalLines(
    const std::vector<campaign::CellRecord>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs)
    lines.push_back(r.toJsonLine(/*includeVolatile=*/false));
  return lines;
}

TEST(ShardCampaign, RecordsIndependentOfShardThreadsAndJobs) {
  // The first two cells of the fig09 RO_RR row (p = 0, 25): same
  // campaignSeed and cell order as the full fig09 campaign.
  campaign::CampaignSpec spec;
  spec.name = "fig09shard";
  spec.campaignSeed = 1;
  for (const int p : {0, 25}) {
    campaign::CampaignCell cell;
    cell.key = "RO_RR/p" + std::to_string(p);
    cell.labels = {{"scheme", "RO_RR"}, {"p", std::to_string(p)}};
    cell.run = [p](const campaign::CellContext& ctx) {
      Mesh mesh(8, 8);
      const RegionMap regions = RegionMap::halves(mesh);
      ScenarioSpec s =
          fig09Spec(mesh, regions, p / 100.0, schemeRoRr(), ctx.seed);
      return runScenario(ctx.applyTo(s));
    };
    spec.add(std::move(cell));
  }

  campaign::RunnerOptions base;
  base.jobs = 1;
  const auto reference = campaign::runCampaign(spec, base);
  ASSERT_EQ(reference.records.size(), 2u);
  EXPECT_EQ(reference.records[0].seed, 10451216379200822465ull);
  ASSERT_EQ(reference.records[0].appApl.size(), 2u);
  EXPECT_EQ(reference.records[0].appApl[0], 23.313518113299295);
  EXPECT_EQ(reference.records[0].cyclesRun, 22062u);

  const struct {
    int jobs, shardThreads;
  } grid[] = {{1, 2}, {2, 1}, {4, 8}};
  for (const auto& g : grid) {
    campaign::RunnerOptions opts;
    opts.jobs = g.jobs;
    opts.cell.shardThreads = g.shardThreads;
    const auto run = campaign::runCampaign(spec, opts);
    EXPECT_EQ(canonicalLines(run.records), canonicalLines(reference.records))
        << "jobs=" << g.jobs << " shardThreads=" << g.shardThreads;
  }
}

// ---- Thread-count-agnostic checkpoints ------------------------------------

// Fast windows: warmup 2000, measurement ends at 22000; cycle 12000 is
// mid-window with measured packets in flight.
constexpr Cycle kMidWindow = 12'000;

TEST(ShardContinuation, CheckpointAt8ThreadsResumesLegacyToGolden) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.0, schemeRoRr(), 10451216379200822465ull);

  const std::string path = ::testing::TempDir() + "rair_shard_cont_a.snap";
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(ScenarioSpec(spec).withThreads(8),
                                      kMidWindow, path));

  // Resume on one shard thread (the default).
  const ScenarioResult r = runScenario(ScenarioSpec(spec).withCheckpoint(path));
  EXPECT_EQ(r.resumedFromCycle, kMidWindow);
  expectFig09Golden(r);
}

TEST(ShardContinuation, LegacyCheckpointResumesAt4ThreadsToGolden) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  const ScenarioSpec spec =
      fig12SpecA(mesh, regions, schemeRaRair(), 16184226688143867045ull);

  const std::string path = ::testing::TempDir() + "rair_shard_cont_b.snap";
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(spec, kMidWindow, path));

  const ScenarioResult r = runScenario(
      ScenarioSpec(spec).withCheckpoint(path).withThreads(4));
  EXPECT_EQ(r.resumedFromCycle, kMidWindow);
  expectFig12Golden(r);
}

// ---- Cross-engine divergence bisection ------------------------------------

TEST(ShardBisect, SaveShardedRestoreLegacyNeverDiverges) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 1.0, schemeRaRair(), 8042142155559163816ull);

  const auto res = snapshot::bisectDivergence(
      ScenarioSpec(spec).withThreads(8), spec, /*snapAt=*/200,
      /*horizon=*/800);
  EXPECT_FALSE(res.diverged)
      << "cycle " << res.firstDivergentCycle << " section " << res.section;
}

TEST(ShardBisect, SaveLegacyRestoreShardedNeverDiverges) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 1.0, schemeRaRair(), 8042142155559163816ull);

  const auto res = snapshot::bisectDivergence(
      spec, ScenarioSpec(spec).withThreads(3), /*snapAt=*/200,
      /*horizon=*/800);
  EXPECT_FALSE(res.diverged)
      << "cycle " << res.firstDivergentCycle << " section " << res.section;
}


// ---- Shard boundary rebalancing -------------------------------------------

TEST(ShardPartition, SplitByCostEvenCostsSplitEvenly) {
  const std::vector<std::uint64_t> cost(256, 7);
  EXPECT_EQ(splitByCost(cost, 4), (std::vector<NodeId>{0, 64, 128, 192, 256}));
  EXPECT_EQ(splitByCost(cost, 3), (std::vector<NodeId>{0, 85, 171, 256}));
  EXPECT_EQ(splitByCost(cost, 1), (std::vector<NodeId>{0, 256}));
}

TEST(ShardPartition, SplitByCostGivesBusyNodesSmallerShards) {
  // A busy middle: shard sums 9 / 10 / 13 are the closest contiguous
  // split of 32 into thirds.
  const std::vector<std::uint64_t> cost = {1, 1, 1, 1, 5, 5, 5, 5,
                                           1, 1, 1, 1};
  EXPECT_EQ(splitByCost(cost, 3), (std::vector<NodeId>{0, 5, 7, 12}));
  // More shards than nodes: the surplus shards come out empty.
  const auto b = splitByCost(std::vector<std::uint64_t>(3, 1), 5);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 3);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

/// Forces a pseudo-random shard partition every `every` cycles for the
/// guard's lifetime (ShardEngine::forceRebalanceEveryForTest).
class ForcedRebalance {
 public:
  explicit ForcedRebalance(Cycle every) {
    ShardEngine::forceRebalanceEveryForTest = every;
  }
  ~ForcedRebalance() { ShardEngine::forceRebalanceEveryForTest = 0; }
  ForcedRebalance(const ForcedRebalance&) = delete;
  ForcedRebalance& operator=(const ForcedRebalance&) = delete;
};

struct NullEvents final : NicEvents {
  void onInjected(PacketId, Cycle) override {}
  void onDelivered(PacketId, Cycle, std::uint16_t) override {}
};

TEST(ShardPartition, ForcedMovesIncludeEmptyAndOneNodeShards) {
  Mesh mesh(4, 4);
  const RegionMap regions = RegionMap::halves(mesh);
  RoundRobinPolicy policy;
  Network net(mesh, regions, NetworkConfig{}, RoutingKind::LocalAdaptive,
              policy);
  NullEvents sink;
  const ForcedRebalance force(1);
  ShardEngine engine(net, sink, 4);
  bool sawEmpty = false, sawOneNode = false, sawMove = false;
  std::vector<NodeId> prev = engine.boundaries();
  for (Cycle c = 0; c < 64; ++c) {
    engine.step(c);
    const std::vector<NodeId> b = engine.boundaries();
    ASSERT_EQ(b.size(), 5u);
    EXPECT_EQ(b.front(), 0);
    EXPECT_EQ(b.back(), mesh.numNodes());
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
    for (std::size_t s = 0; s + 1 < b.size(); ++s) {
      sawEmpty |= b[s] == b[s + 1];
      sawOneNode |= b[s] + 1 == b[s + 1];
    }
    sawMove |= b != prev;
    prev = b;
  }
  EXPECT_TRUE(sawEmpty);
  EXPECT_TRUE(sawOneNode);
  EXPECT_TRUE(sawMove);
}

TEST(ShardPartition, IdleNetworkKeepsTheEvenSplit) {
  // No traffic: every node costs the same, so the cost-based rebalance
  // reproduces the initial even split.
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  RoundRobinPolicy policy;
  Network net(mesh, regions, NetworkConfig{}, RoutingKind::LocalAdaptive,
              policy);
  NullEvents sink;
  ShardEngine engine(net, sink, 4);
  const std::vector<NodeId> even = {0, 16, 32, 48, 64};
  EXPECT_EQ(engine.boundaries(), even);
  for (Cycle c = 0; c <= ShardEngine::kRebalanceInterval; ++c) engine.step(c);
  EXPECT_EQ(engine.boundaries(), even);
}

TEST(ShardRebalance, ForcedMovesKeepFig09Golden) {
  const ForcedRebalance force(3);
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  expectFig09Golden(runScenario(
      fig09Spec(mesh, regions, 0.0, schemeRoRr(), 10451216379200822465ull)
          .withThreads(4)));
}

TEST(ShardRebalance, ForcedMovesKeepFig12Golden) {
  const ForcedRebalance force(5);
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  expectFig12Golden(runScenario(
      fig12SpecA(mesh, regions, schemeRaRair(), 16184226688143867045ull)
          .withThreads(3)));
}

TEST(ShardRebalance, ForcedMovesKeepSerializedStateByteIdentical) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      fig09Spec(mesh, regions, 0.5, schemeRaRair(), 17911839290282890590ull);
  const auto reference = serializedAfter(ScenarioSpec(spec).withThreads(1),
                                         3000);
  const ForcedRebalance force(2);
  for (const int threads : {2, 4, 8}) {
    const auto moved =
        serializedAfter(ScenarioSpec(spec).withThreads(threads), 3000);
    EXPECT_TRUE(reference == moved) << "threads=" << threads << ": "
        << snapshot::firstDifferingSection(reference, moved);
  }
}

TEST(ShardRebalance, ForcedMovesKeepCheckpointResumeOnGolden) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  const ScenarioSpec spec =
      fig12SpecA(mesh, regions, schemeRaRair(), 16184226688143867045ull);
  const ForcedRebalance force(7);
  const std::string path = ::testing::TempDir() + "rair_shard_rebal.snap";
  snapshot::removeFile(path);
  ASSERT_TRUE(writeScenarioCheckpoint(ScenarioSpec(spec).withThreads(4),
                                      kMidWindow, path));
  const ScenarioResult r = runScenario(
      ScenarioSpec(spec).withCheckpoint(path).withThreads(8));
  EXPECT_EQ(r.resumedFromCycle, kMidWindow);
  expectFig12Golden(r);
}

}  // namespace
}  // namespace rair

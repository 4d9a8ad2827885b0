// The simulation oracle (src/check/) as a test fixture: a clean run must
// produce zero violations, an armed run must not perturb results, and a
// deliberately corrupted network must be caught.
#include "check/oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "traffic/generator.h"

namespace rair {
namespace {

/// A 4x4 mesh with two half-chip apps at moderate load: enough contention
/// to exercise VA/SA arbitration, escape VCs and credit round-trips.
struct OracleFixture {
  Mesh mesh{4, 4};
  RegionMap regions;
  SimConfig cfg;
  std::unique_ptr<ArbiterPolicy> policy;
  std::unique_ptr<Simulator> sim;

  explicit OracleFixture(const SchemeSpec& scheme, std::uint64_t seed = 7,
                         double rate = 0.25)
      : regions(RegionMap::halves(mesh)) {
    cfg.warmupCycles = 0;
    cfg.measureCycles = 2'000;
    cfg.drainLimit = 30'000;
    cfg.routing = scheme.routing;
    cfg.net.rairPartition = scheme.needsRairPartition();
    policy = makePolicy(scheme, {rate, rate});
    sim = std::make_unique<Simulator>(mesh, regions, cfg, *policy, 2);
    for (AppId a = 0; a < 2; ++a) {
      AppTrafficSpec app;
      app.app = a;
      app.injectionRate = rate;
      app.intraFraction = 0.5;
      app.interFraction = 0.4;
      app.mcFraction = 0.1;
      sim->addSource(std::make_unique<RegionalizedSource>(mesh, regions, app,
                                                          seed + a));
    }
  }
};

TEST(Oracle, CleanRunHasNoViolations) {
  for (const SchemeSpec& scheme : {schemeRoRr(), schemeRaRair()}) {
    OracleFixture fx(scheme);
    check::OracleOptions oo;
    oo.period = 1;
    oo.deadlockPeriod = 16;
    oo.failFast = false;
    check::NetworkOracle oracle(fx.sim->network(), fx.sim->ledger(), oo);
    fx.sim->observers().attach(&oracle);
    const RunResult r = fx.sim->run();
    oracle.finish(r.cyclesRun);
    const check::OracleReport rep = oracle.report();
    EXPECT_TRUE(rep.ok()) << scheme.label << ": " << rep.summary();
    EXPECT_GT(rep.scans, 1000u);
    EXPECT_GT(rep.deadlockScans, 0u);
  }
}

TEST(Oracle, ArmedRunDoesNotPerturbResults) {
  // The oracle is a pure observer: same seed with and without it attached
  // must give bit-identical outcomes.
  auto runOnce = [](bool armed) {
    OracleFixture fx(schemeRaRair(), /*seed=*/42);
    std::unique_ptr<check::NetworkOracle> oracle;
    if (armed) {
      oracle = std::make_unique<check::NetworkOracle>(
          fx.sim->network(), fx.sim->ledger(),
          check::OracleOptions::armed());
      fx.sim->observers().attach(oracle.get());
    }
    return fx.sim->run();
  };
  const RunResult plain = runOnce(false);
  const RunResult armed = runOnce(true);
  EXPECT_EQ(armed.cyclesRun, plain.cyclesRun);
  EXPECT_EQ(armed.packetsCreated, plain.packetsCreated);
  EXPECT_EQ(armed.packetsDelivered, plain.packetsDelivered);
  EXPECT_EQ(armed.flitHops, plain.flitHops);
  EXPECT_EQ(armed.deliveredFlitRate, plain.deliveredFlitRate);
  EXPECT_EQ(armed.stats.overallApl(), plain.stats.overallApl());
  EXPECT_EQ(armed.stats.appApl(0), plain.stats.appApl(0));
  EXPECT_EQ(armed.stats.appApl(1), plain.stats.appApl(1));
}

TEST(Oracle, DroppedCreditIsCaught) {
  OracleFixture fx(schemeRoRr());
  check::OracleOptions oo;
  oo.period = 1;
  oo.failFast = false;
  check::NetworkOracle oracle(fx.sim->network(), fx.sim->ledger(), oo);
  fx.sim->observers().attach(&oracle);
  fx.sim->begin();

  // Warm the network, then lose one credit on the first link that holds
  // a droppable one.
  for (int i = 0; i < 200; ++i) fx.sim->stepCycle();
  bool dropped = false;
  for (NodeId n = 0; n < fx.mesh.numNodes() && !dropped; ++n)
    for (int p = 0; p < kNumPorts && !dropped; ++p)
      for (int vc = 0; vc < fx.sim->network().layout().totalVcs(); ++vc)
        if (fx.sim->network().router(n).debugDropCredit(static_cast<Dir>(p),
                                                        vc)) {
          dropped = true;
          break;
        }
  ASSERT_TRUE(dropped) << "no credit in flight to drop after warmup";

  for (int i = 0; i < 5; ++i) fx.sim->stepCycle();
  const check::OracleReport rep = oracle.report();
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.violations[0].what.find("credit conservation"),
            std::string::npos)
      << rep.summary();
}

TEST(Oracle, StarvationWatchdogFiresOnTinyAgeBound) {
  OracleFixture fx(schemeRoRr());
  check::OracleOptions oo;
  oo.period = 1;
  oo.maxInNetworkAge = 2;  // virtually every packet exceeds this
  oo.failFast = false;
  check::NetworkOracle oracle(fx.sim->network(), fx.sim->ledger(), oo);
  fx.sim->observers().attach(&oracle);
  fx.sim->begin();
  for (int i = 0; i < 300; ++i) fx.sim->stepCycle();
  const check::OracleReport rep = oracle.report();
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.violations[0].what.find("starvation"), std::string::npos)
      << rep.summary();
}

TEST(Oracle, FinishFlagsUndrainedTrafficOnEmptyLedger) {
  // finish() is only meaningful when the ledger empties; mid-run it holds
  // traffic, so the quiescence cross-check must stay silent.
  OracleFixture fx(schemeRoRr());
  check::OracleOptions oo;
  oo.failFast = false;
  check::NetworkOracle oracle(fx.sim->network(), fx.sim->ledger(), oo);
  fx.sim->observers().attach(&oracle);
  fx.sim->begin();
  for (int i = 0; i < 100; ++i) fx.sim->stepCycle();
  ASSERT_GT(fx.sim->inFlight(), 0u);
  oracle.finish(fx.sim->now());
  EXPECT_TRUE(oracle.report().ok()) << oracle.report().summary();
}

/// One packet on an otherwise idle 4x4 mesh, driven cycle by cycle under a
/// per-cycle oracle: the end-of-run cross-check at its boundary cases.
struct OnePacketFixture {
  Mesh mesh{4, 4};
  RegionMap regions{RegionMap::halves(mesh)};
  std::unique_ptr<ArbiterPolicy> policy =
      makePolicy(schemeRoRr(), {0.0, 0.0});
  Simulator sim{mesh, regions, SimConfig{}, *policy, 2};
  check::NetworkOracle oracle{sim.network(), sim.ledger(), [] {
                                check::OracleOptions oo;
                                oo.period = 1;
                                oo.failFast = false;
                                return oo;
                              }()};

  /// Begins the run and creates one `flits`-flit packet corner to corner.
  PacketId start(std::uint16_t flits) {
    sim.observers().attach(&oracle);
    sim.begin();
    return sim.createPacket(mesh.nodeAt({0, 0}), mesh.nodeAt({3, 3}), 0,
                            MsgClass::Request, flits);
  }

  bool routersAndNicsQuiescent() const {
    for (NodeId n = 0; n < mesh.numNodes(); ++n)
      if (!sim.network().router(n).quiescent() ||
          !sim.network().nic(n).quiescent())
        return false;
    return true;
  }
};

TEST(Oracle, FinishAcceptsCreditsStillReturningAfterTheLastEjection) {
  // On the cycle the last flit ejects, the credit its final buffer slot
  // freed is still on the wire back upstream. Credit conservation accounts
  // for it, so the drained ledger and the network agree.
  OnePacketFixture fx;
  fx.start(1);
  while (fx.sim.inFlight() > 0) {
    ASSERT_LT(fx.sim.now(), 200u) << "the packet never arrived";
    fx.sim.stepCycle();
  }
  ASSERT_FALSE(fx.sim.network().quiescent())
      << "no credit left on the wire: the case under test did not occur";
  fx.oracle.finish(fx.sim.now());
  EXPECT_TRUE(fx.oracle.report().ok()) << fx.oracle.report().summary();
}

TEST(Oracle, FinishFlagsAFlitLeftOnALinkWhenTheLedgerIsEmpty) {
  OnePacketFixture fx;
  const PacketId id = fx.start(1);
  auto flitOnALink = [&] {
    for (const LinkLayer* link : fx.sim.network().links())
      for (int vc = 0; vc < fx.sim.network().layout().totalVcs(); ++vc)
        if (link->inFlightFlits(vc) != 0) return true;
    return false;
  };
  // Step until the flit sits on a link with every router and NIC idle,
  // then drop the packet from the ledger behind the network's back.
  while (!(flitOnALink() && fx.routersAndNicsQuiescent())) {
    ASSERT_LT(fx.sim.now(), 200u) << "the flit never rested on a link alone";
    fx.sim.stepCycle();
  }
  fx.sim.faultDropPacket(id);
  ASSERT_EQ(fx.sim.inFlight(), 0u);
  fx.oracle.finish(fx.sim.now());
  bool reported = false;
  for (const auto& v : fx.oracle.report().violations)
    reported |= v.what.find("still holds traffic") != std::string::npos;
  EXPECT_TRUE(reported) << fx.oracle.report().summary();
}

TEST(FuzzHarness, CaseGenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 0xDEADBEEFull, 987654321ull}) {
    const check::FuzzCase a = check::generateCase(seed);
    const check::FuzzCase b = check::generateCase(seed);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_GE(a.meshW, 2);
    EXPECT_GE(a.meshH, 2);
    EXPECT_GE(a.vcsPerClass, 3);  // valid under RAIR partitioning
    EXPECT_EQ(static_cast<int>(a.apps.size()), a.regionsX * a.regionsY);
  }
}

/// Number of distinct case seeds among `seeds` that have a PARSEC twin.
int twinsAmong(const std::set<std::uint64_t>& seeds) {
  int twins = 0;
  for (const std::uint64_t s : seeds)
    twins += check::parsecTwin(s, check::generateCase(s)).has_value();
  return twins;
}

TEST(FuzzHarness, SmokeRunIsClean) {
  check::FuzzOptions opts;
  opts.scenarios = 3;
  opts.seed = 11;
  std::set<std::uint64_t> seeds;
  const check::FuzzSummary sum = check::runFuzz(
      opts, [&](int, const check::FuzzCaseResult& res) {
        seeds.insert(res.caseSeed);
      });
  ASSERT_EQ(seeds.size(), 3u);
  // (3 cases + their PARSEC twins) x 2 default schemes.
  EXPECT_EQ(sum.casesRun, 2 * (3 + twinsAmong(seeds)));
  EXPECT_EQ(sum.failures, 0) << (sum.failed.empty()
                                     ? std::string("?")
                                     : sum.failed[0].report.summary());
}

TEST(FuzzHarness, InjectedFaultsAreCaught) {
  // The self-test of the whole subsystem: every injected fault -- whether
  // a dropped credit or a corrupted metrics counter cell -- must make the
  // oracle report a violation.
  check::FuzzOptions opts;
  opts.scenarios = 6;
  opts.seed = 23;
  opts.injectFault = true;
  int creditFaults = 0;
  int counterFaults = 0;
  std::set<std::uint64_t> seeds;
  const check::FuzzSummary sum =
      check::runFuzz(opts, [&](int, const check::FuzzCaseResult& res) {
        seeds.insert(res.caseSeed);
        if (!res.faultInjected) return;
        if (res.faultKind == "credit") ++creditFaults;
        if (res.faultKind == "counter") ++counterFaults;
      });
  ASSERT_EQ(seeds.size(), 6u);
  EXPECT_EQ(sum.casesRun, 2 * (6 + twinsAmong(seeds)));
  EXPECT_EQ(sum.faultsMissed, 0);
  // At these loads an idle network is essentially impossible; if every
  // case skipped, the self-test would be vacuous.
  EXPECT_LT(sum.faultsSkipped, sum.casesRun);
  // The case seed alternates the corruption model; with six cases both
  // kinds must have been exercised.
  EXPECT_GT(creditFaults, 0);
  EXPECT_GT(counterFaults, 0);
}

TEST(Oracle, SummaryFormatsSingleMultipleAndTruncatedReports) {
  check::OracleReport rep;
  EXPECT_EQ(rep.summary(), "ok");
  rep.violations.push_back({12, "flit conservation broke"});
  EXPECT_EQ(rep.summary(), "cycle 12: flit conservation broke");
  rep.violations.push_back({15, "credit conservation broke"});
  rep.violations.push_back({16, "starvation"});
  EXPECT_NE(rep.summary().find("cycle 12: flit conservation broke"),
            std::string::npos);
  EXPECT_NE(rep.summary().find("(+2 more)"), std::string::npos);
  rep.truncated = true;
  EXPECT_NE(rep.summary().find("(+2 more, truncated)"), std::string::npos);
}

TEST(FuzzHarness, SchemeMatricesCoverTheLineup) {
  const auto dflt = check::defaultFuzzSchemes();
  ASSERT_EQ(dflt.size(), 2u);
  const auto wide = check::allFuzzSchemes();
  ASSERT_EQ(wide.size(), 5u);
  std::set<std::string> labels;
  for (const auto& s : wide) labels.insert(s.label);
  // Every scheme has its own label, so a failure report names it.
  EXPECT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels.count("RO_RR_XY"), 1u);
}

TEST(FuzzHarness, FaultPlanAppearsInCaseDescription) {
  // Generated plans always contain at least one link outage, so the
  // describe() line must advertise the fault dimension of the case.
  const std::uint64_t cs = 0x77ull;
  check::FuzzCase c = check::generateCase(cs);
  EXPECT_EQ(c.describe().find("faults"), std::string::npos);
  c.faults = check::generateFaultPlan(cs, c);
  ASSERT_FALSE(c.faults.empty());
  EXPECT_NE(c.describe().find("faults"), std::string::npos);
}

TEST(FuzzHarness, ShrinkerReducesUndrainedFailingCase) {
  // A zero drain budget makes every saturated case fail (traffic cannot
  // drain by the hard stop), which drives the shrinker down its whole
  // reduction ladder: with every candidate still failing, the fault plan
  // is removed first, then cycles halve and the geometry collapses.
  check::FuzzOptions opts;
  opts.scenarios = 2;
  opts.seed = 77;  // cases cover adversarial/classes/latency/regions/faults
  opts.faultPlan = true;
  opts.shrink = true;
  opts.drainBudget = 0;
  opts.schemes = {schemeRoRr()};
  const check::FuzzSummary sum = check::runFuzz(opts);
  EXPECT_EQ(sum.casesRun, 2);
  EXPECT_EQ(sum.failures, 2);
  ASSERT_EQ(sum.failed.size(), 2u);
  for (const auto& res : sum.failed) {
    EXPECT_FALSE(res.drained);
    EXPECT_TRUE(res.wasShrunk) << res.shrunk.describe();
    // The fault-free variant still fails, so the plan must be gone and
    // the minimal repro collapsed to one region at unit link latency.
    EXPECT_TRUE(res.shrunk.faults.empty());
    EXPECT_EQ(res.shrunk.regionsX * res.shrunk.regionsY, 1);
    EXPECT_EQ(res.shrunk.linkLatency, 1u);
    EXPECT_EQ(res.shrunk.adversarialRate, 0.0);
    EXPECT_GE(res.shrunk.sourceCycles, 100u);
  }
}

TEST(FuzzHarness, ReproPathShrinksFailingCaseToo) {
  check::FuzzOptions opts;
  opts.faultPlan = true;
  opts.shrink = true;
  opts.drainBudget = 0;
  opts.schemes = {schemeRoRr()};
  const auto results = check::runFuzzSeed(0xF00Dull, opts);
  ASSERT_EQ(results.size(), 1u + twinsAmong({0xF00Dull}));
  for (const auto& res : results) {
    EXPECT_TRUE(res.failed());
    EXPECT_TRUE(res.wasShrunk) << res.shrunk.describe();
  }
}

TEST(FuzzHarness, ParsecTwinsRunCleanAndReproduce) {
  // The first case seeds of base seed 1 that have a PARSEC twin: the twin
  // keeps the synthetic case's geometry, runs one benchmark per region on
  // two classes, and its repro reruns it after the synthetic case.
  std::vector<std::uint64_t> twinSeeds;
  for (std::uint64_t s = 1; twinSeeds.size() < 3; ++s)
    if (check::parsecTwin(s, check::generateCase(s))) twinSeeds.push_back(s);
  check::FuzzOptions opts;
  opts.schemes = check::allFuzzSchemes();
  opts.faultPlan = true;
  for (const std::uint64_t seed : twinSeeds) {
    const check::FuzzCase c = check::generateCase(seed);
    const check::FuzzCase twin = *check::parsecTwin(seed, c);
    EXPECT_TRUE(twin.apps.empty());
    EXPECT_EQ(twin.numClasses, 2);
    EXPECT_EQ(static_cast<int>(twin.parsecApps.size()),
              c.regionsX * c.regionsY);
    EXPECT_EQ(twin.meshW, c.meshW);
    EXPECT_EQ(twin.vcDepth, c.vcDepth);
    EXPECT_NE(twin.describe().find(" parsec ["), std::string::npos);

    const auto results = check::runFuzzSeed(seed, opts);
    ASSERT_EQ(results.size(), 2 * opts.schemes.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const check::FuzzCaseResult& res = results[i];
      const bool isTwin = i >= opts.schemes.size();
      EXPECT_EQ(res.fuzzCase.parsecApps.empty(), !isTwin);
      EXPECT_FALSE(res.fuzzCase.faults.empty());
      EXPECT_TRUE(res.drained) << res.fuzzCase.describe();
      EXPECT_TRUE(res.report.ok()) << res.report.summary();
    }
    // The twin's plan is drawn for its own (two-class) geometry.
    EXPECT_EQ(results.back().fuzzCase.faults.format(),
              check::generateFaultPlan(seed, twin).format());
  }
}

TEST(FuzzHarness, ReproPathReproducesCleanRun) {
  check::FuzzOptions opts;
  const auto results = check::runFuzzSeed(0x1234u, opts);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& res : results) {
    EXPECT_TRUE(res.drained);
    EXPECT_TRUE(res.report.ok()) << res.report.summary();
    EXPECT_EQ(res.caseSeed, 0x1234u);
  }
}

}  // namespace
}  // namespace rair

#include "check/fuzz.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "fault/random_plan.h"
#include "metrics/recorder.h"
#include "sim/scenario.h"

namespace rair::check {

ScenarioSpec caseSpec(const FuzzCase& c, const Mesh& mesh,
                      const RegionMap& regions, const SchemeSpec& scheme,
                      const FuzzOptions& opts) {
  SimConfig cfg;
  cfg.net.numClasses = c.numClasses;
  cfg.net.vcsPerClass = c.vcsPerClass;
  cfg.net.globalVcsPerClass = c.globalVcsPerClass;
  cfg.net.vcDepth = c.vcDepth;
  cfg.net.atomicVcs = c.atomicVcs;
  cfg.net.linkLatency = c.linkLatency;
  cfg.net.linkLayer = c.linkLayer;
  cfg.warmupCycles = 0;
  cfg.measureCycles = c.sourceCycles;
  cfg.drainLimit = opts.drainBudget;
  cfg.shardThreads = opts.shardThreads;

  return ScenarioSpec(mesh, regions)
      .withConfig(cfg)
      .withScheme(scheme)
      .withApps(c.apps)
      .withParsecApps(c.parsecApps)
      .withAdversarialRate(c.adversarialRate)
      .withSeed(c.simSeed)
      .withSourceCutoff(c.sourceCycles)
      .withFaults(c.faults);
}

namespace {

/// SplitMix64 — derives independent case seeds from (base, index) without
/// consuming generator state.
std::uint64_t splitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Drops one credit somewhere in the network, scanning (node, port, vc)
/// triples from a seeded random start so the corruption site varies per
/// case but stays reproducible. Returns false when no output VC currently
/// holds a droppable credit.
bool dropOneCredit(Network& net, Xoshiro256StarStar& rng) {
  const int nodes = net.mesh().numNodes();
  const int tv = net.layout().totalVcs();
  const std::uint64_t total =
      static_cast<std::uint64_t>(nodes) * kNumPorts * tv;
  const std::uint64_t start = rng.below(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t idx = (start + i) % total;
    const auto node = static_cast<NodeId>(idx / (kNumPorts * tv));
    const auto port = static_cast<Dir>((idx / tv) % kNumPorts);
    const int vc = static_cast<int>(idx % tv);
    if (net.router(node).debugDropCredit(port, vc)) return true;
  }
  return false;
}

FuzzCaseResult runCase(const FuzzCase& c, const SchemeSpec& scheme,
                       const FuzzOptions& opts, std::uint64_t caseSeed) {
  Mesh mesh(c.meshW, c.meshH);
  RegionMap regions = RegionMap::blockGrid(mesh, c.regionsX, c.regionsY);
  const ScenarioSpec spec = caseSpec(c, mesh, regions, scheme, opts);
  AssembledScenario as = assembleScenario(spec);
  Simulator& sim = *as.sim;

  OracleOptions oo;
  oo.period = opts.period;
  oo.deadlockPeriod = opts.deadlockPeriod;
  oo.maxInNetworkAge = opts.maxInNetworkAge;
  oo.failFast = false;
  NetworkOracle oracle(sim.network(), sim.ledger(), oo);
  if (as.injector) oracle.attachFaults(as.injector.get());
  sim.observers().attach(&oracle);

  // Every case also runs the metrics recorder (counters level, no file
  // sinks) so the oracle's census cross-check exercises the same
  // registry path the scenario runner uses.
  metrics::MetricsOptions mo;
  mo.level = metrics::MetricsLevel::Counters;
  metrics::MetricsRecorder recorder(sim.network(), regions, mo, as.numApps,
                                    c.sourceCycles);
  sim.observers().attach(&recorder);

  FuzzCaseResult res;
  res.caseSeed = caseSeed;
  res.fuzzCase = c;
  res.scheme = scheme.label;
  res.shrunk = c;

  Xoshiro256StarStar faultRng(splitMix64(caseSeed ^ 0xFA177Eull));
  bool wantFault = opts.injectFault;
  // Alternate deterministically between the two corruption models: a
  // dropped credit (network-state fault the structural scans must catch)
  // and a corrupted metrics counter cell (census fault the totals
  // cross-check must catch).
  const bool metricsFault =
      wantFault && (splitMix64(caseSeed ^ 0x5EEDull) & 1) != 0;
  res.faultKind = !wantFault ? "" : (metricsFault ? "counter" : "credit");
  const Cycle faultCycle =
      wantFault ? 1 + faultRng.below(c.sourceCycles) : 0;

  sim.begin();
  const Cycle hardStop = c.sourceCycles + opts.drainBudget;
  while (true) {
    sim.stepCycle();
    const Cycle now = sim.now();
    if (wantFault && now >= faultCycle) {
      if (metricsFault) {
        recorder.debugCorruptCounter(faultRng());
        res.faultInjected = true;
        wantFault = false;
      } else if (dropOneCredit(sim.network(), faultRng)) {
        // Keep trying each cycle until a credit exists to drop (an idle
        // network early in the window may hold none in this instant).
        res.faultInjected = true;
        wantFault = false;
      }
    }
    // Full quiescence, not just an empty ledger: credits from the last
    // ejections are still in the return pipes for linkLatency cycles, and
    // a PARSEC case may still owe replies to requests delivered in time.
    if (now >= c.sourceCycles && sim.inFlight() == 0 &&
        sim.pendingInjections() == 0 && sim.network().quiescent()) {
      res.drained = true;
      break;
    }
    if (now >= hardStop) break;
  }
  recorder.finalize(sim.now());
  oracle.crossValidateTotals(sim.now(), recorder.deliveredPackets(),
                             recorder.deliveredFlits());
  oracle.finish(sim.now());
  res.report = oracle.report();
  res.droppedByFault = sim.droppedByFault();
  res.corruptedFlits = sim.network().totalCorruptedFlits();
  res.retransmittedFlits = sim.network().totalRetransmittedFlits();
  return res;
}

/// Applies each reduction that keeps the case failing. Bounded work: one
/// rerun per pass, plus up to three extra halvings of the cycle window.
FuzzCase shrinkCase(const FuzzCase& original, const SchemeSpec& scheme,
                    const FuzzOptions& opts, std::uint64_t caseSeed,
                    bool* reduced) {
  FuzzCase best = original;
  *reduced = false;
  const auto stillFails = [&](const FuzzCase& cand) {
    return runCase(cand, scheme, opts, caseSeed).failed();
  };
  const auto tryKeep = [&](FuzzCase cand) {
    if (stillFails(cand)) {
      best = std::move(cand);
      *reduced = true;
    }
  };
  // VC-geometry passes must not reinterpret a CreditLoss event's flat VC
  // index under a different class/VC split (it could land on an escape VC
  // or past the layout, changing what is being shrunk).
  const auto plansCreditLoss = [](const FuzzCase& fc) {
    for (const auto& e : fc.faults.events())
      if (e.kind == fault::FaultKind::CreditLoss) return true;
    return false;
  };

  // Fault dimension first: a case that still fails fault-free is the more
  // valuable repro. Event-count halving keeps the *suffix* — every paired
  // release sorts after its opener, so a suffix can never strand a stall,
  // freeze or soft reset open (lone releases — unstall, thaw, recover —
  // are harmless no-ops).
  if (!best.faults.empty()) {
    FuzzCase cand = best;
    cand.faults = fault::FaultPlan{};
    tryKeep(std::move(cand));
  }
  for (int i = 0; i < 4 && best.faults.size() > 1; ++i) {
    FuzzCase cand = best;
    fault::FaultPlan half;
    const auto& ev = best.faults.events();
    for (std::size_t j = ev.size() / 2; j < ev.size(); ++j) half.add(ev[j]);
    cand.faults = std::move(half);
    if (!stillFails(cand)) break;
    best = std::move(cand);
    *reduced = true;
  }

  for (int i = 0; i < 4 && best.sourceCycles > 100; ++i) {
    FuzzCase cand = best;
    cand.sourceCycles = std::max<Cycle>(100, cand.sourceCycles / 2);
    if (!stillFails(cand)) break;
    best = std::move(cand);
    *reduced = true;
  }
  if (best.adversarialRate > 0.0) {
    FuzzCase cand = best;
    cand.adversarialRate = 0.0;
    tryKeep(std::move(cand));
  }
  // A PARSEC case keeps its two classes: replies travel on the second.
  if (best.numClasses > 1 && best.parsecApps.empty() &&
      !plansCreditLoss(best)) {
    FuzzCase cand = best;
    cand.numClasses = 1;
    for (auto& a : cand.apps) a.msgClass = MsgClass::Request;
    tryKeep(std::move(cand));
  }
  const int minVcs = scheme.needsRairPartition() ? 3 : 2;
  if (best.vcsPerClass > minVcs && !plansCreditLoss(best)) {
    FuzzCase cand = best;
    cand.vcsPerClass = minVcs;
    cand.globalVcsPerClass = -1;
    tryKeep(std::move(cand));
  }
  if (best.linkLatency > 1) {
    FuzzCase cand = best;
    cand.linkLatency = 1;
    tryKeep(std::move(cand));
  }
  if (best.regionsX * best.regionsY > 1) {
    FuzzCase cand = best;
    cand.regionsX = 1;
    cand.regionsY = 1;
    if (cand.parsecApps.empty()) {
      cand.apps.resize(1);
      cand.apps[0].app = 0;
      cand.apps[0].interTargetApp = kNoApp;
    } else {
      cand.parsecApps.resize(1);
    }
    tryKeep(std::move(cand));
  }
  return best;
}

}  // namespace

std::string FuzzCase::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "mesh %dx%d regions %dx%d classes %d vcs %d(g%d) depth %d "
                "atomic %d latency %llu cycles %llu adv %.2f apps %zu "
                "simSeed %llu",
                meshW, meshH, regionsX, regionsY, numClasses, vcsPerClass,
                globalVcsPerClass, vcDepth, atomicVcs ? 1 : 0,
                static_cast<unsigned long long>(linkLatency),
                static_cast<unsigned long long>(sourceCycles),
                adversarialRate, apps.size(),
                static_cast<unsigned long long>(simSeed));
  std::string s = buf;
  for (const auto& a : apps) {
    std::snprintf(buf, sizeof buf,
                  " [app %d rate %.3f i/e/m %.2f/%.2f/%.2f pat %d tgt %d "
                  "cls %d]",
                  static_cast<int>(a.app), a.injectionRate, a.intraFraction,
                  a.interFraction, a.mcFraction,
                  static_cast<int>(a.interPattern),
                  static_cast<int>(a.interTargetApp),
                  static_cast<int>(a.msgClass));
    s += buf;
  }
  if (!parsecApps.empty()) {
    s += " parsec [";
    for (std::size_t i = 0; i < parsecApps.size(); ++i) {
      if (i > 0) s += ' ';
      s += parsecName(parsecApps[i]);
    }
    s += ']';
  }
  if (linkLayer != LinkLayerKind::Ideal) {
    std::snprintf(buf, sizeof buf, " link %s", linkLayerKindName(linkLayer));
    s += buf;
  }
  if (!faults.empty()) {
    std::snprintf(buf, sizeof buf, " faults %zu", faults.size());
    s += buf;
  }
  return s;
}

FuzzCase generateCase(std::uint64_t caseSeed) {
  Xoshiro256StarStar rng(caseSeed);
  FuzzCase c;
  c.meshW = static_cast<int>(2 + rng.below(4));  // 2..5
  c.meshH = static_cast<int>(2 + rng.below(4));
  // Region grid: RegionalizedSource needs at least 2 nodes per region;
  // blockGrid's smallest block spans floor(dim / blocks) nodes per axis.
  // 1x1 always satisfies the bound, so the loop terminates.
  do {
    c.regionsX = static_cast<int>(
        1 + rng.below(static_cast<std::uint64_t>(std::min(c.meshW, 3))));
    c.regionsY = static_cast<int>(
        1 + rng.below(static_cast<std::uint64_t>(std::min(c.meshH, 3))));
  } while ((c.meshW / c.regionsX) * (c.meshH / c.regionsY) < 2);
  c.numClasses = static_cast<int>(1 + rng.below(2));
  // RAIR partitioning needs escape + regional + global, hence >= 3; every
  // case must be valid under every scheme of the matrix.
  c.vcsPerClass = static_cast<int>(3 + rng.below(2));  // 3..4
  c.globalVcsPerClass =
      rng.chance(0.25)
          ? static_cast<int>(1 + rng.below(static_cast<std::uint64_t>(
                                     c.vcsPerClass - 2)))
          : -1;
  c.vcDepth = static_cast<int>(2 + rng.below(5));  // 2..6
  c.atomicVcs = rng.chance(0.5);
  c.linkLatency = 1 + rng.below(2);
  c.sourceCycles = 300 + rng.below(901);  // 300..1200
  c.adversarialRate = rng.chance(0.3) ? 0.1 + 0.4 * rng.real() : 0.0;
  c.simSeed = rng();

  const int numApps = c.regionsX * c.regionsY;
  for (int a = 0; a < numApps; ++a) {
    AppTrafficSpec app;
    app.app = static_cast<AppId>(a);
    // Loads reach well past saturation: the interesting invariant space
    // (full buffers, escape paths, DPA flips) only opens up there.
    app.injectionRate = 0.02 + 0.6 * rng.real();
    double intra = 0.05 + rng.real();
    double inter = rng.real() * 0.8;
    double mc = rng.real() * 0.3;
    const double sum = intra + inter + mc;
    app.intraFraction = intra / sum;
    app.interFraction = inter / sum;
    app.mcFraction = mc / sum;
    app.interPattern = static_cast<PatternKind>(rng.below(4));  // UR/TP/BC/HS
    if (numApps >= 2 && rng.chance(0.25))
      app.interTargetApp = static_cast<AppId>(
          (a + 1 +
           static_cast<int>(
               rng.below(static_cast<std::uint64_t>(numApps - 1)))) %
          numApps);
    if (c.numClasses == 2 && rng.chance(0.3)) app.msgClass = MsgClass::Reply;
    c.apps.push_back(app);
  }
  return c;
}

std::optional<FuzzCase> parsecTwin(std::uint64_t caseSeed, const FuzzCase& c) {
  const std::uint64_t derived = splitMix64(caseSeed ^ 0x9A25ECull);
  if (derived % 4 != 0) return std::nullopt;
  Xoshiro256StarStar rng(derived);
  constexpr std::uint64_t kBenchmarks =
      static_cast<std::uint64_t>(ParsecBenchmark::X264) + 1;
  FuzzCase twin = c;
  twin.apps.clear();
  twin.numClasses = 2;
  for (int r = 0; r < c.regionsX * c.regionsY; ++r)
    twin.parsecApps.push_back(
        static_cast<ParsecBenchmark>(rng.below(kBenchmarks)));
  return twin;
}

fault::FaultPlan generateFaultPlan(std::uint64_t caseSeed,
                                   const FuzzCase& c) {
  // Thin wrapper over the shared generator: budget mode, the family
  // chosen by the case's link layer. The derived seed is part of the
  // repro contract -- a case seed regenerates its plan bit-exactly.
  fault::RandomPlanOptions opts;
  opts.meshW = c.meshW;
  opts.meshH = c.meshH;
  opts.numClasses = c.numClasses;
  opts.vcsPerClass = c.vcsPerClass;
  opts.windowBegin = 1;
  opts.windowEnd = c.sourceCycles;
  opts.retxLayer = c.linkLayer == LinkLayerKind::Retx;
  opts.mtbf = 0;
  return fault::generateRandomPlan(splitMix64(caseSeed ^ 0xFA017ull), opts);
}

std::vector<SchemeSpec> defaultFuzzSchemes() {
  return {schemeRoRr(), schemeRaRair()};
}

std::vector<SchemeSpec> allFuzzSchemes() {
  return {schemeRoRr(), schemeRoRr(RoutingKind::Xy), schemeRoRank(),
          schemeRaDbar(), schemeRaRair()};
}

std::vector<FuzzCaseResult> runFuzzSeed(std::uint64_t caseSeed,
                                        const FuzzOptions& opts) {
  const std::vector<SchemeSpec> schemes =
      opts.schemes.empty() ? defaultFuzzSchemes() : opts.schemes;
  // The synthetic case, then its PARSEC twin when it has one, each with
  // the seed's fault plan for its own geometry.
  std::vector<FuzzCase> cases{generateCase(caseSeed)};
  cases[0].linkLayer = opts.linkLayer;
  if (auto twin = parsecTwin(caseSeed, cases[0]))
    cases.push_back(std::move(*twin));
  if (opts.faultPlan)
    for (FuzzCase& c : cases) c.faults = generateFaultPlan(caseSeed, c);
  std::vector<FuzzCaseResult> out;
  for (const FuzzCase& c : cases) {
    for (const auto& scheme : schemes) {
      FuzzCaseResult res = runCase(c, scheme, opts, caseSeed);
      if (!opts.injectFault && res.failed() && opts.shrink)
        res.shrunk = shrinkCase(c, scheme, opts, caseSeed, &res.wasShrunk);
      out.push_back(std::move(res));
    }
  }
  return out;
}

FuzzSummary runFuzz(const FuzzOptions& opts, const FuzzProgress& progress) {
  FuzzSummary sum;
  sum.baseSeed = opts.seed;
  for (int i = 0; i < opts.scenarios; ++i) {
    const std::uint64_t caseSeed =
        splitMix64(opts.seed + static_cast<std::uint64_t>(i));
    for (const FuzzCaseResult& res : runFuzzSeed(caseSeed, opts)) {
      sum.corruptedTotal += res.corruptedFlits;
      sum.retransmittedTotal += res.retransmittedFlits;
      if (opts.injectFault) {
        if (!res.faultInjected)
          ++sum.faultsSkipped;
        else if (!res.failed())
          ++sum.faultsMissed;
      } else if (res.failed()) {
        ++sum.failures;
        if (sum.failed.size() < 32) sum.failed.push_back(res);
      }
      if (progress) progress(sum.casesRun, res);
      ++sum.casesRun;
    }
  }
  return sum;
}

}  // namespace rair::check

// rair_fault: replay a fault plan and report per-region degradation
// against the fault-free twin of the same scenario.
//
//   rair_fault --plan outage.fp
//   rair_fault --plan outage.fp --scheme RA_RAIR --threads 4 --check
//   rair_fault --plan corrupt.fp --link-layer retx
//   rair_fault --plan outage.fp --cell fig09:RA_RAIR/p50
//   rair_fault --plan outage.fp --trace workload.trace
//   rair_fault --example > outage.fp
//
// The default workload is the paper's canonical two-app halves scenario
// (Fig. 8): app 0 low-load with fraction p inter-region, app 1 high-load
// intra-regional, rates calibrated against the half-mesh saturation knee.
// --cell swaps it for any built-in campaign cell, --trace for a recorded
// trace. Both runs share the seed and windows, so every reported delta is
// caused by the plan alone.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "check/oracle.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "link/link_layer.h"
#include "region/region_map.h"
#include "scenarios/paper_scenarios.h"
#include "sim/saturation.h"
#include "sim/scenario.h"
#include "sim/scheme.h"
#include "trace/trace.h"

namespace {

using namespace rair;

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: rair_fault --plan FILE [options]\n"
      "       rair_fault --example\n"
      "\n"
      "Replays the fault plan on the canonical 8x8 two-app workload and\n"
      "reports per-region degradation vs a fault-free twin run.\n"
      "\n"
      "options:\n"
      "  --plan FILE   fault plan, text format (one event per line):\n"
      "                  @<cycle> down|up|stall|unstall <node> <N|E|S|W>\n"
      "                  @<cycle> creditloss <node> <N|E|S|W> <vc> <count>\n"
      "                  @<cycle> freeze|thaw <node>\n"
      "                  @<cycle> corrupt <node> <N|E|S|W> <count>\n"
      "                  @<cycle> reset <node> [<duration>]\n"
      "                  @<cycle> recover <node>\n"
      "                blank lines and #-comments are ignored; <node> is a\n"
      "                row-major id (y*width + x)\n"
      "  --example     print a commented example plan and exit\n"
      "  --scheme S    RO_RR (default), RO_Rank, RA_DBAR, RA_RAIR, RAIR_VA\n"
      "  --p N         inter-region percent of app 0's traffic (default 50)\n"
      "  --seed N      simulation seed (default 1); under --cell this is\n"
      "                the campaign master seed\n"
      "  --fast        5x-shrunk windows\n"
      "  --threads N   sharded cycle engine with N threads (default 1;\n"
      "                results are byte-identical for every N)\n"
      "  --link-layer KIND\n"
      "                ideal (default) | retx: build every channel with\n"
      "                the CRC/retransmission link layer. corrupt events\n"
      "                require retx; down/up events require ideal; reset\n"
      "                events work on both (retx redelivers after\n"
      "                recovery, ideal treats the reset as a node outage)\n"
      "  --cell CAMPAIGN:KEY\n"
      "                replay the plan on a built-in campaign cell instead\n"
      "                of the canonical workload (e.g.\n"
      "                --cell fig09:RA_RAIR/p50); the twin is the cell\n"
      "                exactly as the campaign runs it, so --scheme/--p\n"
      "                are ignored. Cells that define their own plan (the\n"
      "                faults campaign's non-none cells) are rejected\n"
      "  --trace FILE  replay the plan on a recorded trace workload\n"
      "                (format: <cycle> <src> <dst> <app> <class> <flits>\n"
      "                per line, see src/trace/trace.h) on the 8x8 mesh\n"
      "                instead of the synthetic two-app scenario\n"
      "  --check       additionally replay under the fault-aware network\n"
      "                oracle and report any invariant violations (not\n"
      "                supported with --cell)\n");
}

int printExample() {
  std::printf(
      "# rair_fault example plan (8x8 mesh, node id = y*8 + x).\n"
      "# Cycles are absolute; the paper windows measure 10000..110000,\n"
      "# --fast windows 2000..22000.\n"
      "\n"
      "# 3000-cycle outage of the east link of node (3,3):\n"
      "@5000 down 27 E\n"
      "@8000 up 27 E\n"
      "\n"
      "# Stall the south out-port of node (5,2) for 1000 cycles:\n"
      "@6000 stall 21 S\n"
      "@7000 unstall 21 S\n"
      "\n"
      "# Destroy one credit of adaptive VC 1 on (5,5)'s west port:\n"
      "@6500 creditloss 45 W 1 1\n"
      "\n"
      "# Freeze injection at node (4,4) for 500 cycles:\n"
      "@7000 freeze 36\n"
      "@7500 thaw 36\n"
      "\n"
      "# Corrupt 4 flits entering (3,3)'s east wire. Requires\n"
      "# --link-layer retx, which is incompatible with down/up events --\n"
      "# keep corruption plans separate from outage plans:\n"
      "#@6000 corrupt 27 E 4\n"
      "\n"
      "# Soft-reset the router at (4,3) for 400 cycles (works on both\n"
      "# link layers; equivalent to '@8000 reset 28' + '@8400 recover 28'):\n"
      "@8000 reset 28 400\n");
  return 0;
}

struct Args {
  std::string planFile;
  std::string schemeName = "RO_RR";
  std::string cellRef;
  std::string traceFile;
  LinkLayerKind linkLayer = LinkLayerKind::Ideal;
  int p = 50;
  std::uint64_t seed = 1;
  int threads = 1;
  bool fast = false;
  bool check = false;
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--example") {
      std::exit(printExample());
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--check") {
      args.check = true;
    } else if (arg == "--plan") {
      const char* v = next();
      if (!v) return false;
      args.planFile = v;
    } else if (arg == "--scheme") {
      const char* v = next();
      if (!v) return false;
      args.schemeName = v;
    } else if (arg == "--cell") {
      const char* v = next();
      if (!v) return false;
      args.cellRef = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return false;
      args.traceFile = v;
    } else if (arg == "--link-layer") {
      const char* v = next();
      if (!v) return false;
      const auto kind = linkLayerKindFromName(v);
      if (!kind) {
        std::fprintf(stderr, "unknown link layer '%s'\n", v);
        return false;
      }
      args.linkLayer = *kind;
    } else if (arg == "--p") {
      const char* v = next();
      if (!v) return false;
      args.p = std::atoi(v);
      if (args.p < 0 || args.p > 100) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return false;
      args.threads = std::atoi(v);
      if (args.threads <= 0) return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (!args.cellRef.empty() && !args.traceFile.empty()) {
    std::fprintf(stderr, "--cell and --trace are mutually exclusive\n");
    return false;
  }
  if (!args.cellRef.empty() && args.check) {
    std::fprintf(stderr, "--check is not supported with --cell\n");
    return false;
  }
  return !args.planFile.empty();
}

bool findScheme(const std::string& name, SchemeSpec& out) {
  const std::vector<SchemeSpec> lineup = {
      schemeRoRr(), schemeRoRank(), schemeRaDbar(), schemeRaRair(),
      schemeRairVaOnly()};
  for (const SchemeSpec& s : lineup)
    if (s.label == name) {
      out = s;
      return true;
    }
  return false;
}

/// Friendly plan/layer compatibility check, instead of the injector's
/// RAIR_CHECK abort deep inside the run.
bool validatePlanLayer(const fault::FaultPlan& plan, LinkLayerKind layer) {
  bool corrupt = false, outage = false;
  for (const fault::FaultEvent& e : plan.events()) {
    corrupt |= e.kind == fault::FaultKind::CorruptFlit;
    outage |= e.kind == fault::FaultKind::LinkDown ||
              e.kind == fault::FaultKind::LinkUp;
  }
  if (corrupt && layer == LinkLayerKind::Ideal) {
    std::fprintf(stderr,
                 "plan contains corrupt events, which require the "
                 "retransmission layer: rerun with --link-layer retx\n");
    return false;
  }
  if (outage && layer == LinkLayerKind::Retx) {
    std::fprintf(stderr,
                 "plan contains down/up events, which require the ideal "
                 "link layer (retx has no outage semantics)\n");
    return false;
  }
  return true;
}

void reportPair(const ScenarioResult& twin, const ScenarioResult& faulted) {
  auto line = [](const char* tag, const ScenarioResult& r) {
    std::printf("%-10s %-9s cycles %-8llu created %-7llu delivered %-7llu "
                "mean APL %.2f\n",
                tag, terminationName(r.run.termination),
                static_cast<unsigned long long>(r.run.cyclesRun),
                static_cast<unsigned long long>(r.run.packetsCreated),
                static_cast<unsigned long long>(r.run.packetsDelivered),
                r.meanApl);
  };
  line("twin", twin);
  line("faulted", faulted);

  std::printf("\nper-region degradation (APL vs twin):\n");
  for (std::size_t a = 0; a < faulted.appApl.size(); ++a) {
    const double base = a < twin.appApl.size() ? twin.appApl[a] : 0.0;
    const double delta =
        base > 0.0 ? (faulted.appApl[a] / base - 1.0) * 100.0 : 0.0;
    std::printf("  region %zu (app %zu): %8.2f -> %8.2f  (%+.1f%%)\n", a, a,
                base, faulted.appApl[a], delta);
  }

  if (faulted.faultStats) {
    const fault::FaultStats& fs = *faulted.faultStats;
    std::printf("\nfault accounting: %llu events applied, %llu packets / "
                "%llu flits dropped, %llu reroutes,\n"
                "  %llu unreachable pairs (worst), %llu degraded cycles, "
                "%llu recovery cycles\n",
                static_cast<unsigned long long>(fs.eventsApplied),
                static_cast<unsigned long long>(fs.droppedPackets),
                static_cast<unsigned long long>(fs.droppedFlits),
                static_cast<unsigned long long>(fs.reroutes),
                static_cast<unsigned long long>(fs.unreachablePairs),
                static_cast<unsigned long long>(fs.degradedCycles),
                static_cast<unsigned long long>(fs.recoveryCycles));
    if (fs.corruptedFlits > 0 || fs.retransmittedFlits > 0)
      std::printf("  %llu flits corrupted on the wire, %llu "
                  "retransmitted\n",
                  static_cast<unsigned long long>(fs.corruptedFlits),
                  static_cast<unsigned long long>(fs.retransmittedFlits));
    if (fs.softResets > 0)
      std::printf("  %llu router soft resets\n",
                  static_cast<unsigned long long>(fs.softResets));
  }
}

int finish(const ScenarioResult& faulted, bool ok) {
  if (faulted.run.termination != Termination::Drained)
    std::printf("\nWARNING: faulted run did not drain (%s)\n",
                terminationName(faulted.run.termination));
  return ok ? 0 : 1;
}

/// --cell: replay the plan on a built-in campaign cell; the twin is the
/// cell exactly as rair_campaign would run it.
int runCellMode(const Args& args, const fault::FaultPlan& plan) {
  const auto colon = args.cellRef.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr,
                 "--cell expects CAMPAIGN:KEY (e.g. fig09:RA_RAIR/p50)\n");
    return 2;
  }
  const std::string name = args.cellRef.substr(0, colon);
  const std::string key = args.cellRef.substr(colon + 1);
  if (!campaign::isBuiltinCampaign(name)) {
    std::fprintf(stderr, "unknown campaign '%s'\n", name.c_str());
    return 2;
  }

  campaign::BuildContext ctx = campaign::defaultBuildContext(args.fast);
  ctx.campaignSeed = args.seed;
  ctx.sim.net.linkLayer = args.linkLayer;
  ctx.log = [](const std::string& msg) {
    std::fprintf(stderr, "rair_fault: %s\n", msg.c_str());
  };
  const campaign::CampaignSpec spec =
      campaign::buildBuiltinCampaign(name, ctx);

  std::size_t index = spec.cells.size();
  for (std::size_t i = 0; i < spec.cells.size(); ++i)
    if (spec.cells[i].key == key) index = i;
  if (index == spec.cells.size()) {
    std::fprintf(stderr, "campaign %s has no cell '%s'; cells:\n",
                 name.c_str(), key.c_str());
    for (const auto& c : spec.cells)
      std::fprintf(stderr, "  %s\n", c.key.c_str());
    return 2;
  }
  const campaign::CampaignCell& cell = spec.cells[index];
  for (const auto& [label, value] : cell.labels)
    if (label == "fault" && value != "none") {
      std::fprintf(stderr,
                   "cell %s defines its own fault plan; pick a plan-free "
                   "cell (e.g. a /none cell or any non-faults campaign)\n",
                   key.c_str());
      return 2;
    }

  campaign::CellContext cc;
  cc.seed = campaign::cellSeed(spec.campaignSeed, index);
  cc.shardThreads = args.threads;

  std::printf("campaign %s, cell %s, campaign seed %llu, %s windows\n\n",
              name.c_str(), key.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.fast ? "fast" : "paper");
  std::fprintf(stderr, "rair_fault: running fault-free twin...\n");
  const ScenarioResult twin = cell.run(cc);
  std::fprintf(stderr, "rair_fault: replaying plan...\n");
  campaign::CellContext ccFaulted = cc;
  ccFaulted.faults = plan;
  const ScenarioResult faulted = cell.run(ccFaulted);

  reportPair(twin, faulted);
  return finish(faulted, faulted.run.termination == Termination::Drained);
}

/// --trace: replay the plan on a recorded trace workload (8x8 halves
/// fixture, same as the canonical mode).
int runTraceMode(const Args& args, const SchemeSpec& scheme,
                 const fault::FaultPlan& plan) {
  const Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const std::vector<TraceRecord> records = readTraceFile(args.traceFile);
  if (records.empty()) {
    std::fprintf(stderr, "trace '%s' has no records\n",
                 args.traceFile.c_str());
    return 2;
  }
  SimConfig cfg = campaign::paperSimConfig(args.fast);
  int numApps = regions.numApps();
  for (const TraceRecord& r : records) {
    if (r.src >= mesh.numNodes() || r.dst >= mesh.numNodes()) {
      std::fprintf(stderr,
                   "trace '%s' targets node %d outside the 8x8 mesh\n",
                   args.traceFile.c_str(), std::max(r.src, r.dst));
      return 2;
    }
    if (static_cast<int>(r.msgClass) >= cfg.net.numClasses) {
      std::fprintf(stderr,
                   "trace '%s' uses message class %d but the paper "
                   "config has %d class(es)\n",
                   args.traceFile.c_str(), static_cast<int>(r.msgClass),
                   cfg.net.numClasses);
      return 2;
    }
    numApps = std::max(numApps, static_cast<int>(r.app) + 1);
  }

  cfg.net.linkLayer = args.linkLayer;
  cfg.shardThreads = args.threads;
  cfg.routing = scheme.routing;
  cfg.net.rairPartition = scheme.needsRairPartition();

  // The trace fixes each app's offered load, so the rank policies get
  // uniform intensities (they only need a total order).
  const std::vector<double> intensities(
      static_cast<std::size_t>(numApps), 1.0);

  auto runOnce = [&](bool withFaults,
                     check::OracleReport* oracleOut) -> ScenarioResult {
    auto policy = makePolicy(scheme, intensities);
    Simulator sim(mesh, regions, cfg, *policy, numApps);
    sim.addSource(std::make_unique<TraceReplaySource>(records));
    std::unique_ptr<fault::FaultInjector> inj;
    if (withFaults) {
      inj = std::make_unique<fault::FaultInjector>(sim, plan);
      inj->attach();
    }
    std::unique_ptr<check::NetworkOracle> oracle;
    if (oracleOut != nullptr) {
      check::OracleOptions oo;
      oo.period = 1;
      oo.deadlockPeriod = 64;
      oo.maxInNetworkAge = 20'000;
      oo.failFast = false;
      oracle = std::make_unique<check::NetworkOracle>(sim.network(),
                                                      sim.ledger(), oo);
      if (inj) oracle->attachFaults(inj.get());
      sim.observers().attach(oracle.get());
    }
    ScenarioResult res;
    res.run = sim.run();
    if (oracle) {
      oracle->finish(res.run.cyclesRun);
      *oracleOut = oracle->report();
      sim.observers().detach(oracle.get());
    }
    res.meanApl = res.run.stats.overallApl();
    for (AppId a = 0; a < numApps; ++a)
      res.appApl.push_back(res.run.stats.appApl(a));
    if (inj) res.faultStats = inj->stats();
    return res;
  };

  std::printf("trace %s (%zu records, %d apps), scheme %s, %s windows\n\n",
              args.traceFile.c_str(), records.size(), numApps,
              scheme.label.c_str(), args.fast ? "fast" : "paper");
  std::fprintf(stderr, "rair_fault: running fault-free twin...\n");
  const ScenarioResult twin = runOnce(false, nullptr);
  std::fprintf(stderr, "rair_fault: replaying plan...\n");
  const ScenarioResult faulted = runOnce(true, nullptr);
  reportPair(twin, faulted);

  bool ok = faulted.run.termination == Termination::Drained;
  if (args.check) {
    std::fprintf(stderr, "rair_fault: replaying under the oracle...\n");
    check::OracleReport report;
    (void)runOnce(true, &report);
    std::printf("\noracle: %s (%llu scans, %llu deadlock scans)\n",
                report.summary().c_str(),
                static_cast<unsigned long long>(report.scans),
                static_cast<unsigned long long>(report.deadlockScans));
    ok = ok && report.ok();
  }
  return finish(faulted, ok);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    usage(stderr);
    return 2;
  }

  SchemeSpec scheme;
  if (!findScheme(args.schemeName, scheme)) {
    std::fprintf(stderr, "unknown scheme '%s'\n", args.schemeName.c_str());
    return 2;
  }

  std::ifstream in(args.planFile);
  if (!in) {
    std::fprintf(stderr, "cannot read fault plan '%s'\n",
                 args.planFile.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  fault::FaultPlan plan;
  std::string err;
  if (!fault::FaultPlan::parse(text.str(), plan, &err)) {
    std::fprintf(stderr, "bad fault plan '%s': %s\n", args.planFile.c_str(),
                 err.c_str());
    return 2;
  }
  if (plan.empty()) {
    std::fprintf(stderr, "fault plan '%s' has no events\n",
                 args.planFile.c_str());
    return 2;
  }
  if (!validatePlanLayer(plan, args.linkLayer)) return 2;
  std::printf("plan (%zu events):\n%s\n", plan.events().size(),
              plan.format().c_str());

  if (!args.cellRef.empty()) return runCellMode(args, plan);
  if (!args.traceFile.empty()) return runTraceMode(args, scheme, plan);

  const Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);

  // Calibrate the half-mesh saturation knee (the campaign's shared
  // "halves/halfSat" scalar) so the twin runs at the paper's operating
  // point: app 0 at 10% of saturation, app 1 at the stable high load.
  std::fprintf(stderr, "rair_fault: calibrating half-mesh saturation...\n");
  AppTrafficSpec shape;
  shape.app = 0;
  const double sat = appSaturationRate(mesh, regions, shape,
                                       campaign::paperSatOptions(args.fast));
  const auto apps = scenarios::twoAppInterRegion(
      args.p / 100.0, scenarios::kLowLoadFraction * sat,
      scenarios::kHighLoadFraction * sat);

  auto baseSpec = [&] {
    return ScenarioSpec(mesh, regions)
        .withConfig(campaign::paperSimConfig(args.fast))
        .withScheme(scheme)
        .withApps(apps)
        .withSeed(args.seed)
        .withLinkLayer(args.linkLayer)
        .withThreads(args.threads);
  };

  std::fprintf(stderr, "rair_fault: running fault-free twin...\n");
  const ScenarioResult twin = runScenario(baseSpec());
  std::fprintf(stderr, "rair_fault: replaying plan...\n");
  const ScenarioResult faulted = runScenario(baseSpec().withFaults(plan));

  std::printf("scheme %s, p=%d, seed %llu, %s windows\n\n",
              scheme.label.c_str(), args.p,
              static_cast<unsigned long long>(args.seed),
              args.fast ? "fast" : "paper");
  reportPair(twin, faulted);

  bool ok = faulted.run.termination == Termination::Drained;
  if (args.check) {
    std::fprintf(stderr, "rair_fault: replaying under the oracle...\n");
    AssembledScenario as = assembleScenario(baseSpec().withFaults(plan));
    check::OracleOptions oo;
    oo.period = 1;
    oo.deadlockPeriod = 64;
    oo.maxInNetworkAge = 20'000;
    oo.failFast = false;
    check::NetworkOracle oracle(as.sim->network(), as.sim->ledger(), oo);
    if (as.injector) oracle.attachFaults(as.injector.get());
    as.sim->observers().attach(&oracle);
    const RunResult run = as.sim->run();
    oracle.finish(run.cyclesRun);
    const check::OracleReport report = oracle.report();
    std::printf("\noracle: %s (%llu scans, %llu deadlock scans)\n",
                report.summary().c_str(),
                static_cast<unsigned long long>(report.scans),
                static_cast<unsigned long long>(report.deadlockScans));
    ok = ok && report.ok();
  }

  return finish(faulted, ok);
}

// rair_fuzz: property-based fuzzing of the simulator under the oracle.
//
//   rair_fuzz --scenarios 2000                    # hunt for violations
//   rair_fuzz --scenarios 200 --inject-fault      # oracle self-test
//   rair_fuzz --repro 0xDEADBEEF                  # replay one case seed
//
// Each case seed expands deterministically into a small random scenario
// (mesh, region grid, VC layout, loads past saturation) that runs to
// complete drain with every invariant scan armed. Failing cases print a
// reproducing seed and a shrunk parameter set; rerun with --repro SEED.
// Exit codes: 0 clean, 1 violations (or a missed fault in self-test
// mode), 2 usage error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/fuzz.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: rair_fuzz [options]\n"
      "       rair_fuzz --repro SEED [options]\n"
      "\n"
      "options:\n"
      "  --scenarios N        generated cases (default: 100); each runs\n"
      "                       under every scheme of the matrix\n"
      "  --seed N             base seed; case i derives from splitmix\n"
      "                       (default: 1)\n"
      "  --schemes WHICH      rr | rair | both | all (default: both)\n"
      "  --period N           oracle scan cadence in cycles (default: 1)\n"
      "  --deadlock-period N  wait-graph cycle-check cadence (default: 64)\n"
      "  --age-bound N        starvation watchdog in-network age bound;\n"
      "                       0 disables (default: 20000)\n"
      "  --drain-budget N     post-cutoff cycles before a failed drain is\n"
      "                       itself a violation (default: 60000)\n"
      "  --inject-fault       self-test: inject one fault per case --\n"
      "                       alternating between dropping a credit and\n"
      "                       corrupting a metrics counter cell -- and\n"
      "                       require the oracle to catch every one\n"
      "  --fault-plan         attach a seed-derived random fault plan to\n"
      "                       every case (link outages incl. permanent,\n"
      "                       port stalls, injection freezes, credit loss,\n"
      "                       router soft resets; corruption bursts\n"
      "                       instead of outages under --link-layer retx)\n"
      "                       and require zero\n"
      "                       violations: faults must degrade, never\n"
      "                       corrupt, with every undelivered packet\n"
      "                       accounted as dropped\n"
      "  --link-layer KIND    ideal | retx (default: ideal); retx builds\n"
      "                       every channel with the CRC/retransmission\n"
      "                       layer (go-back-N, bounded replay buffer)\n"
      "  --repro SEED         replay one case seed (decimal or 0x hex)\n"
      "  --no-shrink          report failures without shrinking\n"
      "  --shard-threads N    run every case on the sharded cycle engine\n"
      "                       with N threads (default 1); outcomes are\n"
      "                       byte-identical, the engine's barriers run\n"
      "                       under the oracle\n"
      "  --quiet              suppress per-case progress dots\n");
}

struct Args {
  rair::check::FuzzOptions opts;
  bool repro = false;
  std::uint64_t reproSeed = 0;
  bool quiet = false;
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
    } else if (arg == "--inject-fault") {
      args.opts.injectFault = true;
    } else if (arg == "--fault-plan") {
      args.opts.faultPlan = true;
    } else if (arg == "--no-shrink") {
      args.opts.shrink = false;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--scenarios") {
      const char* v = next();
      if (!v) return false;
      args.opts.scenarios = std::atoi(v);
      if (args.opts.scenarios <= 0) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      args.opts.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--repro") {
      const char* v = next();
      if (!v) return false;
      args.repro = true;
      args.reproSeed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--period") {
      const char* v = next();
      if (!v) return false;
      args.opts.period = std::strtoull(v, nullptr, 10);
      if (args.opts.period == 0) return false;
    } else if (arg == "--deadlock-period") {
      const char* v = next();
      if (!v) return false;
      args.opts.deadlockPeriod = std::strtoull(v, nullptr, 10);
      if (args.opts.deadlockPeriod == 0) return false;
    } else if (arg == "--age-bound") {
      const char* v = next();
      if (!v) return false;
      args.opts.maxInNetworkAge = std::strtoull(v, nullptr, 10);
    } else if (arg == "--drain-budget") {
      const char* v = next();
      if (!v) return false;
      args.opts.drainBudget = std::strtoull(v, nullptr, 10);
      if (args.opts.drainBudget == 0) return false;
    } else if (arg == "--shard-threads") {
      const char* v = next();
      if (!v) return false;
      args.opts.shardThreads = std::atoi(v);
      if (args.opts.shardThreads <= 0) return false;
    } else if (arg == "--link-layer") {
      const char* v = next();
      if (!v) return false;
      const auto kind = rair::linkLayerKindFromName(v);
      if (!kind) {
        std::fprintf(stderr, "unknown link layer '%s'\n", v);
        return false;
      }
      args.opts.linkLayer = *kind;
    } else if (arg == "--schemes") {
      const char* v = next();
      if (!v) return false;
      const std::string which = v;
      if (which == "rr") {
        args.opts.schemes = {rair::schemeRoRr()};
      } else if (which == "rair") {
        args.opts.schemes = {rair::schemeRaRair()};
      } else if (which == "both") {
        args.opts.schemes = rair::check::defaultFuzzSchemes();
      } else if (which == "all") {
        args.opts.schemes = rair::check::allFuzzSchemes();
      } else {
        std::fprintf(stderr, "unknown scheme set '%s'\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void printFailure(const rair::check::FuzzCaseResult& res,
                  const rair::check::FuzzOptions& opts) {
  rair::check::FuzzCase c = rair::check::generateCase(res.caseSeed);
  c.linkLayer = opts.linkLayer;
  if (opts.faultPlan)
    c.faults = rair::check::generateFaultPlan(res.caseSeed, c);
  const bool faultPlan = opts.faultPlan;
  std::fprintf(stderr,
               "\nFAIL seed 0x%016" PRIX64 " scheme %s%s\n  case: %s\n",
               res.caseSeed, res.scheme.c_str(),
               res.drained ? "" : " (did not drain)", c.describe().c_str());
  if (faultPlan && !c.faults.empty())
    std::fprintf(stderr, "  plan:\n%s", c.faults.format().c_str());
  if (res.wasShrunk) {
    std::fprintf(stderr, "  shrunk: %s\n", res.shrunk.describe().c_str());
    if (!res.shrunk.faults.empty())
      std::fprintf(stderr, "  shrunk plan:\n%s",
                   res.shrunk.faults.format().c_str());
  }
  for (const auto& v : res.report.violations)
    std::fprintf(stderr, "  cycle %llu: %s\n",
                 static_cast<unsigned long long>(v.cycle), v.what.c_str());
  if (res.report.truncated)
    std::fprintf(stderr, "  (further violations truncated)\n");
  std::fprintf(stderr, "  repro: rair_fuzz --repro 0x%016" PRIX64 "\n",
               res.caseSeed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rair::check;

  Args args;
  if (!parseArgs(argc, argv, args)) {
    usage(stderr);
    return 2;
  }

  if (args.repro) {
    FuzzCase c = generateCase(args.reproSeed);
    c.linkLayer = args.opts.linkLayer;
    if (args.opts.faultPlan)
      c.faults = generateFaultPlan(args.reproSeed, c);
    std::printf("case 0x%016" PRIX64 ": %s\n", args.reproSeed,
                c.describe().c_str());
    if (!c.faults.empty())
      std::printf("plan:\n%s", c.faults.format().c_str());
    const auto results = runFuzzSeed(args.reproSeed, args.opts);
    bool anyFail = false;
    for (const auto& res : results) {
      if (res.failed()) {
        anyFail = true;
        printFailure(res, args.opts);
      } else {
        std::printf("  %s: ok (%llu scans, %llu deadlock scans%s)\n",
                    res.scheme.c_str(),
                    static_cast<unsigned long long>(res.report.scans),
                    static_cast<unsigned long long>(res.report.deadlockScans),
                    res.faultInjected
                        ? (res.faultKind == "counter"
                               ? ", counter fault injected"
                               : ", credit fault injected")
                        : "");
        if (args.opts.faultPlan)
          std::printf("    dropped by fault: %llu packets\n",
                      static_cast<unsigned long long>(res.droppedByFault));
        if (args.opts.linkLayer == rair::LinkLayerKind::Retx)
          std::printf("    corrupted %llu, retransmitted %llu flits\n",
                      static_cast<unsigned long long>(res.corruptedFlits),
                      static_cast<unsigned long long>(res.retransmittedFlits));
      }
    }
    return anyFail ? 1 : 0;
  }

  int creditFaults = 0;
  int counterFaults = 0;
  unsigned long long droppedTotal = 0;
  const FuzzProgress progress = [&](int index, const FuzzCaseResult& res) {
    droppedTotal += res.droppedByFault;
    if (res.faultInjected) {
      if (res.faultKind == "counter")
        ++counterFaults;
      else
        ++creditFaults;
    }
    if (args.quiet) return;
    // In fault mode the interesting outcome is a MISS (fault injected but
    // not caught); in normal mode it is any failure.
    const bool bad = args.opts.injectFault
                         ? (res.faultInjected && !res.failed())
                         : res.failed();
    std::fputc(bad ? 'X' : '.', stderr);
    if ((index + 1) % 64 == 0) std::fprintf(stderr, " %d\n", index + 1);
    std::fflush(stderr);
  };

  const FuzzSummary sum = runFuzz(args.opts, progress);
  if (!args.quiet) std::fputc('\n', stderr);

  if (args.opts.injectFault) {
    std::printf(
        "fault self-test: %d runs (%d credit, %d counter faults), "
        "%d faults missed, %d skipped (idle)\n",
        sum.casesRun, creditFaults, counterFaults, sum.faultsMissed,
        sum.faultsSkipped);
    if (sum.faultsMissed > 0) {
      std::fprintf(stderr,
                   "ERROR: oracle missed %d injected faults (base seed "
                   "%" PRIu64 ")\n",
                   sum.faultsMissed, sum.baseSeed);
      return 1;
    }
    return 0;
  }

  std::printf("fuzz%s: %d runs (%d scenarios x %zu schemes), %d failures",
              args.opts.faultPlan ? " (fault plans)" : "", sum.casesRun,
              args.opts.scenarios,
              args.opts.schemes.empty() ? defaultFuzzSchemes().size()
                                        : args.opts.schemes.size(),
              sum.failures);
  if (args.opts.faultPlan)
    std::printf(", %llu packets dropped by faults", droppedTotal);
  if (args.opts.linkLayer == rair::LinkLayerKind::Retx)
    std::printf(", %llu corrupted / %llu retransmitted flits",
                static_cast<unsigned long long>(sum.corruptedTotal),
                static_cast<unsigned long long>(sum.retransmittedTotal));
  std::printf("\n");
  for (const auto& res : sum.failed) printFailure(res, args.opts);
  return sum.failures > 0 ? 1 : 0;
}

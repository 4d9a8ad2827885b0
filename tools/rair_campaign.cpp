// rair_campaign: run a named built-in experiment campaign on a worker
// pool and persist structured results.
//
//   rair_campaign --name fig09 --jobs 4 --out BENCH_fig09.json
//
// Results are JSON Lines (one record per simulation cell plus memoized
// calibration values); re-running against an existing file executes only
// the missing cells. See EXPERIMENTS.md ("Campaigns") for the record
// schema and resume semantics.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "campaign/builtin.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "cli_args.h"
#include "fault/injector.h"
#include "link/link_layer.h"
#include "metrics/metrics.h"
#include "snapshot/buffer.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: rair_campaign --name <campaign> [options]\n"
      "       rair_campaign --list\n"
      "\n"
      "options:\n"
      "  --name NAME   built-in campaign to run (see --list)\n"
      "  --jobs N      worker threads (default: hardware concurrency)\n"
      "  --out FILE    JSON Lines results file (default: BENCH_<name>.json)\n"
      "  --seed N      campaign master seed (default: 1)\n"
      "  --fast        5x-shrunk simulation windows\n"
      "  --fresh       discard an existing results file instead of resuming\n"
      "  --no-table    skip the paper-style table rendering\n"
      "  --metrics LEVEL\n"
      "                instrumentation level: off, counters (default),\n"
      "                summary, series. summary+ embeds aggregate metrics\n"
      "                in each cell record (default records stay\n"
      "                byte-identical to uninstrumented runs)\n"
      "  --metrics-out PREFIX\n"
      "                write per-cell metrics sinks under\n"
      "                PREFIX<campaign>_<key>.: summary.json and\n"
      "                counters.csv, plus series.jsonl at --metrics\n"
      "                series. Requires --metrics summary|series; creates\n"
      "                the prefix's directory when it is missing\n"
      "  --warm-cache DIR\n"
      "                cache end-of-warm-up simulator states in DIR;\n"
      "                calibration probes and cells whose warm-up was\n"
      "                already simulated (e.g. on a re-run) restore it\n"
      "                instead of re-simulating. Cells under --metrics\n"
      "                summary|series run without it, same records\n"
      "  --checkpoint-dir DIR\n"
      "                write per-cell mid-run checkpoints into DIR; an\n"
      "                interrupted campaign resumes unfinished cells from\n"
      "                their last checkpoint, with byte-identical records.\n"
      "                Cells under --metrics summary|series are not\n"
      "                checkpointed and rerun from the start\n"
      "  --checkpoint-every N\n"
      "                checkpoint refresh period in cycles (default "
      "25000)\n"
      "  --shard-threads N\n"
      "                run each cell's simulation on the deterministic\n"
      "                sharded cycle engine with N threads (composes with\n"
      "                --jobs; records are byte-identical for every\n"
      "                N >= 1; default 1)\n"
      "  --link-layer KIND\n"
      "                ideal (default) | retx: build every channel with\n"
      "                the CRC/retransmission link layer. Ideal-link runs\n"
      "                reproduce existing records byte-identically; retx\n"
      "                changes scenario identity -- use a dedicated --out\n"
      "  --fault-density R\n"
      "                (faults campaign only) add the density axis:\n"
      "                MTBF-style seeded random plans at R, R/2 and 2R\n"
      "                events per 1000 measured cycles, as\n"
      "                <scheme>/density{0.5x,1x,2x} cells. Changes the\n"
      "                cell set -- use a dedicated --out\n"
      "  --faults FILE\n"
      "                attach the fault plan in FILE (text format, see\n"
      "                tools/rair_fault --help) to every cell that does\n"
      "                not define its own; cell records gain a \"fault\"\n"
      "                block. A plan one of those cells cannot run exits\n"
      "                2 before any cell runs. Changes results -- use a\n"
      "                dedicated --out.\n"
      "                The built-in \"faults\" campaign runs a canned\n"
      "                resilience sweep without this flag.\n");
}

struct Args {
  std::string name;
  std::string out;
  std::string warmCache;
  std::string checkpointDir;
  std::string faultsFile;
  rair::metrics::MetricsOptions metrics;
  rair::Cycle checkpointEvery = 25'000;
  rair::LinkLayerKind linkLayer = rair::LinkLayerKind::Ideal;
  double faultDensity = 0.0;
  int jobs = 0;
  int shardThreads = 1;
  std::uint64_t seed = 1;
  bool fast = false;
  bool fresh = false;
  bool noTable = false;
  bool list = false;
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
    } else if (arg == "--list") {
      args.list = true;
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--fresh") {
      args.fresh = true;
    } else if (arg == "--no-table") {
      args.noTable = true;
    } else if (arg == "--name") {
      const char* v = next();
      if (!v) return false;
      args.name = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return false;
      args.out = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return false;
      if (!rair::cli::parseNumber("--jobs", v, args.jobs, 1)) return false;
    } else if (arg == "--shard-threads") {
      const char* v = next();
      if (!v) return false;
      if (!rair::cli::parseNumber("--shard-threads", v, args.shardThreads, 1))
        return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      if (!rair::cli::parseNumber("--seed", v, args.seed, 0)) return false;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (!v) return false;
      const auto level = rair::metrics::metricsLevelFromName(v);
      if (!level) {
        std::fprintf(stderr, "unknown metrics level '%s' (expected off, "
                             "counters, summary or series)\n", v);
        return false;
      }
      args.metrics.level = *level;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      args.metrics.outPrefix = v;
    } else if (arg == "--warm-cache") {
      const char* v = next();
      if (!v) return false;
      args.warmCache = v;
    } else if (arg == "--checkpoint-dir") {
      const char* v = next();
      if (!v) return false;
      args.checkpointDir = v;
    } else if (arg == "--link-layer") {
      const char* v = next();
      if (!v) return false;
      const auto kind = rair::linkLayerKindFromName(v);
      if (!kind) {
        std::fprintf(stderr, "unknown link layer '%s'\n", v);
        return false;
      }
      args.linkLayer = *kind;
    } else if (arg == "--fault-density") {
      const char* v = next();
      if (!v) return false;
      if (!rair::cli::parseNumber("--fault-density", v, args.faultDensity,
                                  0.0))
        return false;
      if (args.faultDensity == 0.0) {
        std::fprintf(stderr, "--fault-density: expected a number > 0\n");
        return false;
      }
    } else if (arg == "--faults") {
      const char* v = next();
      if (!v) return false;
      args.faultsFile = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (!v) return false;
      if (!rair::cli::parseNumber("--checkpoint-every", v,
                                  args.checkpointEvery, 1))
        return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return args.list || !args.name.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rair::campaign;

  Args args;
  if (!parseArgs(argc, argv, args)) {
    usage(stderr);
    return 2;
  }

  if (args.list) {
    std::printf("built-in campaigns:\n");
    for (const std::string& name : builtinCampaignNames())
      std::printf("  %s\n", name.c_str());
    return 0;
  }

  if (!isBuiltinCampaign(args.name)) {
    std::fprintf(stderr, "unknown campaign '%s'; --list shows the "
                         "built-ins\n", args.name.c_str());
    return 2;
  }
  // Below summary level no sink is written, so a prefix there would be
  // silently ignored.
  if (!args.metrics.outPrefix.empty() &&
      args.metrics.level < rair::metrics::MetricsLevel::Summary) {
    std::fprintf(stderr, "--metrics-out requires --metrics summary or "
                         "--metrics series\n");
    return 2;
  }
  // The sinks are written after every cell has run: make the prefix's
  // directory now, as cells do for --checkpoint-dir, and refuse before any
  // calibration when it cannot be made.
  if (args.metrics.level >= rair::metrics::MetricsLevel::Summary) {
    const std::string& prefix = args.metrics.outPrefix;
    const std::size_t slash = prefix.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : prefix.substr(0, slash);
    if (!dir.empty() && !rair::snapshot::ensureDir(dir)) {
      std::fprintf(stderr, "cannot create the --metrics-out directory '%s'\n",
                   dir.c_str());
      return 2;
    }
  }
  RunnerOptions opts;
  if (!args.faultsFile.empty()) {
    std::string err;
    if (!rair::fault::readPlanFile(args.faultsFile, opts.cell.faults, &err)) {
      std::fprintf(stderr, "bad fault plan '%s': %s\n",
                   args.faultsFile.c_str(), err.c_str());
      return 2;
    }
  }
  if (args.out.empty()) args.out = "BENCH_" + args.name + ".json";
  if (args.fresh) std::remove(args.out.c_str());

  const auto logLine = [](const std::string& msg) {
    std::fprintf(stderr, "rair_campaign: %s\n", msg.c_str());
  };

  // Build the spec with a results-file-backed calibration cache: known
  // values are reused, fresh ones are appended so the next invocation
  // skips calibration entirely. The writer is scoped to the build — the
  // runner opens its own append handle afterwards.
  const CampaignSpec spec = [&] {
    const CampaignFileData data = loadCampaignFile(args.out);
    JsonlWriter writer(args.out);
    BuildContext ctx = defaultBuildContext(args.fast);
    ctx.campaignSeed = args.seed;
    ctx.sim.net.linkLayer = args.linkLayer;
    ctx.faultDensity = args.faultDensity;
    ctx.sat.warmCacheDir = args.warmCache;
    ctx.log = logLine;
    auto memo = std::make_shared<std::map<std::string, double>>(data.values);
    const std::string name = args.name;
    ctx.value = [&writer, memo, name](const std::string& key,
                                      const std::function<double()>& fn) {
      const auto it = memo->find(key);
      if (it != memo->end()) return it->second;
      const double v = fn();
      (*memo)[key] = v;
      writer.writeLine(valueJsonLine(name, key, v));
      return v;
    };
    return buildBuiltinCampaign(args.name, ctx);
  }();

  // The injector's legality rules, checked against every cell that takes
  // the campaign-wide plan before any of them runs.
  for (const CampaignCell& cell : spec.cells) {
    if (!cell.spec || !cell.spec->faults.empty()) continue;
    const std::string err =
        rair::fault::checkPlan(opts.cell.faults, *cell.spec->mesh,
                               cell.spec->effectiveConfig().net);
    if (!err.empty()) {
      std::fprintf(stderr, "fault plan '%s' cannot run on cell %s: %s\n",
                   args.faultsFile.c_str(), cell.key.c_str(), err.c_str());
      return 2;
    }
  }
  opts.jobs = args.jobs;
  opts.outPath = args.out;
  opts.resume = true;
  opts.cell.snap.warmCacheDir = args.warmCache;
  opts.cell.snap.checkpointDir = args.checkpointDir;
  opts.cell.snap.checkpointEvery = args.checkpointEvery;
  opts.cell.shardThreads = args.shardThreads;
  opts.cell.metrics = args.metrics;
  opts.log = logLine;
  const CampaignSummary summary = runCampaign(spec, opts);

  if (!args.noTable && spec.renderTables) {
    const std::string tables = spec.renderTables(summary.lookup());
    std::fwrite(tables.data(), 1, tables.size(), stdout);
  }

  std::printf(
      "\ncampaign %s: %zu cells (%zu executed, %zu resumed, %zu not "
      "drained) in %.1f s -> %s\n",
      spec.name.c_str(), spec.cells.size(), summary.executed,
      summary.skipped, summary.tripwired, summary.wallMs / 1000.0,
      args.out.c_str());
  return 0;
}

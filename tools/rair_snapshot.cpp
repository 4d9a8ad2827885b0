// rair_snapshot: inspect and debug snapshot files and the determinism
// invariant behind them.
//
//   rair_snapshot --dump FILE              header + section table
//   rair_snapshot --diff FILE FILE         first differing state section
//   rair_snapshot --bisect-divergence [options]
//                                          binary-search the first cycle a
//                                          restored run diverges from the
//                                          straight run (a healthy build
//                                          reports no divergence)
//
// The bisect mode drives a built-in two-application scenario (the fig09
// workload shape) so a save/restore bug in any subsystem can be localized
// to a cycle and a section without writing a reproducer first. See
// DESIGN.md ("Snapshots") for the file format.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "snapshot/bisect.h"
#include "snapshot/buffer.h"
#include "snapshot/scenario_key.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: rair_snapshot --dump FILE\n"
      "       rair_snapshot --diff FILE FILE\n"
      "       rair_snapshot --bisect-divergence [options]\n"
      "\n"
      "bisect options:\n"
      "  --scheme NAME  RO_RR (default), RO_Rank, RA_DBAR, RA_RAIR,\n"
      "                 RAIR_VA, RAIR_NativeH, RAIR_ForeignH\n"
      "  --p N          inter-region traffic fraction in %% (default 50)\n"
      "  --seed N       scenario seed (default 1)\n"
      "  --snap-at N    cycle to snapshot at (default 1000)\n"
      "  --horizon N    last cycle compared (default 3000)\n"
      "  --shard-threads N\n"
      "                 write the snapshot (and run the straight\n"
      "                 reference) on the sharded cycle engine with N\n"
      "                 threads while the restored run continues on\n"
      "                 one thread -- verifies checkpoints are\n"
      "                 thread-count-agnostic (default 1)\n");
}

bool schemeByName(const std::string& name, rair::SchemeSpec& out) {
  using namespace rair;
  if (name == "RO_RR") out = schemeRoRr();
  else if (name == "RO_Rank") out = schemeRoRank();
  else if (name == "RA_DBAR") out = schemeRaDbar();
  else if (name == "RA_RAIR") out = schemeRaRair();
  else if (name == "RAIR_VA") out = schemeRairVaOnly();
  else if (name == "RAIR_NativeH") out = schemeRairNativeHigh();
  else if (name == "RAIR_ForeignH") out = schemeRairForeignHigh();
  else return false;
  return true;
}

int dump(const std::string& path) {
  const auto snap = rair::snapshot::readSnapshotFile(path);
  if (!snap) {
    std::fprintf(stderr, "rair_snapshot: cannot read '%s' (missing, "
                         "foreign or corrupt)\n", path.c_str());
    return 1;
  }
  std::printf("file:          %s\n", path.c_str());
  std::printf("state version: %" PRIu32 "\n", snap->header.stateVersion);
  std::printf("scenario key:  %016" PRIx64 "\n", snap->header.scenarioKey);
  std::printf("cycle:         %" PRIu64 "\n",
              static_cast<std::uint64_t>(snap->header.cycle));
  std::printf("payload:       %zu bytes\n", snap->payload.size());
  std::printf("\n%-16s %10s %10s\n", "section", "offset", "bytes");
  for (const auto& s : rair::snapshot::listSections(snap->payload))
    std::printf("%-16s %10zu %10zu\n", s.name.c_str(), s.offset, s.size);
  return 0;
}

int diff(const std::string& pathA, const std::string& pathB) {
  const auto a = rair::snapshot::readSnapshotFile(pathA);
  const auto b = rair::snapshot::readSnapshotFile(pathB);
  if (!a || !b) {
    std::fprintf(stderr, "rair_snapshot: cannot read '%s'\n",
                 (!a ? pathA : pathB).c_str());
    return 1;
  }
  if (a->header.scenarioKey != b->header.scenarioKey)
    std::printf("scenario keys differ: %016" PRIx64 " vs %016" PRIx64 "\n",
                a->header.scenarioKey, b->header.scenarioKey);
  if (a->header.cycle != b->header.cycle)
    std::printf("cycles differ: %" PRIu64 " vs %" PRIu64 "\n",
                static_cast<std::uint64_t>(a->header.cycle),
                static_cast<std::uint64_t>(b->header.cycle));
  const std::string section =
      rair::snapshot::firstDifferingSection(a->payload, b->payload);
  if (section.empty()) {
    std::printf("payloads are byte-identical (%zu bytes)\n",
                a->payload.size());
    return 0;
  }
  std::printf("first differing section: %s\n", section.c_str());
  return 2;
}

int bisect(const rair::SchemeSpec& scheme, int p, std::uint64_t seed,
           rair::Cycle snapAt, rair::Cycle horizon, int shardThreads) {
  using namespace rair;
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const auto apps =
      scenarios::twoAppInterRegion(p / 100.0, 0.05, 0.25);
  ScenarioSpec spec = ScenarioSpec(mesh, regions)
                          .withScheme(scheme)
                          .withApps(apps)
                          .withSeed(seed)
                          .withFastWindows();
  std::printf("bisecting %s p=%d%% seed=%" PRIu64 ", snapshot at cycle %"
              PRIu64 ", horizon %" PRIu64 " (full key %016" PRIx64
              ", save threads %d)\n",
              scheme.label.c_str(), p, seed,
              static_cast<std::uint64_t>(snapAt),
              static_cast<std::uint64_t>(horizon),
              snapshot::fullStateKey(spec), shardThreads);
  const snapshot::BisectResult r = snapshot::bisectDivergence(
      ScenarioSpec(spec).withThreads(shardThreads), spec, snapAt, horizon);
  if (!r.diverged) {
    std::printf("no divergence: restored run is byte-identical to the "
                "straight run over the whole range\n");
    return 0;
  }
  std::printf("DIVERGED at cycle %" PRIu64 ", first differing section: %s\n",
              static_cast<std::uint64_t>(r.firstDivergentCycle),
              r.section.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string files[2];
  int numFiles = 0;
  std::string schemeName = "RO_RR";
  int p = 50;
  std::uint64_t seed = 1;
  rair::Cycle snapAt = 1'000;
  rair::Cycle horizon = 3'000;
  int shardThreads = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--dump" || arg == "--diff" ||
               arg == "--bisect-divergence") {
      mode = arg;
    } else if (arg == "--scheme") {
      const char* v = next();
      if (!v) { usage(stderr); return 2; }
      schemeName = v;
    } else if (arg == "--p") {
      const char* v = next();
      if (!v) { usage(stderr); return 2; }
      p = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) { usage(stderr); return 2; }
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shard-threads") {
      const char* v = next();
      if (!v) { usage(stderr); return 2; }
      shardThreads = std::atoi(v);
      if (shardThreads <= 0) { usage(stderr); return 2; }
    } else if (arg == "--snap-at") {
      const char* v = next();
      if (!v) { usage(stderr); return 2; }
      snapAt = std::strtoull(v, nullptr, 10);
    } else if (arg == "--horizon") {
      const char* v = next();
      if (!v) { usage(stderr); return 2; }
      horizon = std::strtoull(v, nullptr, 10);
    } else if (arg[0] != '-' && numFiles < 2) {
      files[numFiles++] = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (mode == "--dump" && numFiles == 1) return dump(files[0]);
  if (mode == "--diff" && numFiles == 2) return diff(files[0], files[1]);
  if (mode == "--bisect-divergence" && numFiles == 0) {
    rair::SchemeSpec scheme;
    if (!schemeByName(schemeName, scheme)) {
      std::fprintf(stderr, "unknown scheme '%s'\n", schemeName.c_str());
      return 2;
    }
    if (p < 0 || p > 100 || snapAt >= horizon) {
      usage(stderr);
      return 2;
    }
    return bisect(scheme, p, seed, snapAt, horizon, shardThreads);
  }
  usage(stderr);
  return 2;
}

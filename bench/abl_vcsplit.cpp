// Ablation: regional vs global VC split.
//
// Paper Sec. VI ("Number of Regional and Global VCs"): skewing the split
// either way weakens one side's ability to be accelerated, so the counts
// are configured "roughly the same". With 5 VCs per class (1 escape + 4
// adaptive) we sweep the number of Global VCs from 1 to 3 and report the
// RAIR mean APL and its reduction vs RO_RR on the six-app scenario.
#include "bench_common.h"

namespace rair::bench {
namespace {

const Mesh& mesh() {
  static Mesh m(8, 8);
  return m;
}
const RegionMap& regions() {
  static RegionMap rm = RegionMap::sixRegions(mesh());
  return rm;
}

std::vector<AppTrafficSpec> workload() {
  static std::vector<double> rates = [] {
    const std::vector<double> dummy(6, 0.0);
    const auto shapes =
        scenarios::sixAppMixed(PatternKind::UniformRandom, dummy);
    return scenarios::calibrateLoads(mesh(), regions(), shapes,
                                     scenarios::sixAppLoadFractions(),
                                     paperSatOptions());
  }();
  return scenarios::sixAppMixed(PatternKind::UniformRandom, rates);
}

const std::vector<int>& splits() {
  static std::vector<int> gs = {1, 2, 3};  // of 4 adaptive VCs per class
  return gs;
}

const ScenarioResult& baseline() {
  return ResultStore::instance().scenario("RO_RR", [] {
    return runScenario(ScenarioSpec(mesh(), regions())
                           .withConfig(paperSimConfig())
                           .withScheme(schemeRoRr())
                           .withApps(workload()));
  });
}

const ScenarioResult& cell(int globalVcs) {
  const std::string key = std::string("g").append(std::to_string(globalVcs));
  return ResultStore::instance().scenario(key, [globalVcs] {
    SimConfig cfg = paperSimConfig();
    cfg.net.globalVcsPerClass = globalVcs;
    return runScenario(ScenarioSpec(mesh(), regions())
                           .withConfig(cfg)
                           .withScheme(schemeRaRair())
                           .withApps(workload()));
  });
}

void printTable() {
  std::printf("\n=== Ablation: regional:global VC split (5 VCs/class = 1 "
              "escape + 4 adaptive; six-app UR scenario) ===\n\n");
  TextTable t({"regional:global", "RAIR mean APL", "reduction vs RO_RR"});
  for (int g : splits()) {
    const auto& r = cell(g);
    const auto row = t.addRow();
    t.set(row, 0, std::to_string(4 - g) + ":" + std::to_string(g));
    t.setNum(row, 1, r.meanApl);
    t.setPct(row, 2, r.meanReductionVs(baseline()));
  }
  std::puts(t.toString().c_str());
  std::printf("Paper reference: a roughly equal split (2:2) supports "
              "generic traffic best.\n");
}

}  // namespace
}  // namespace rair::bench

int main(int argc, char** argv) {
  using namespace rair::bench;
  for (int g : splits()) {
    benchmark::RegisterBenchmark(
        ("abl_vcsplit/global=" + std::to_string(g)).c_str(),
        [g](benchmark::State& st) {
          for (auto _ : st) setAplCounters(st, cell(g));
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  return runBenchMain(argc, argv, printTable);
}

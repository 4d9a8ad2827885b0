// Six-application RNoC interference study (the paper's Fig. 13 scenario).
//
// Usage: six_app_study [pattern]
//   pattern: UR (default), TP, BC or HS — the synthetic pattern followed
//   by the 20% inter-region global traffic component.
//
// Runs all four interference-reduction schemes (RO_RR, RA_DBAR, RO_Rank,
// RA_RAIR) on six concurrently running applications with differentiated
// loads and prints per-application APLs and reductions — the data behind
// Figs. 14 and 15 at fixed (uncalibrated) loads. Use
// `rair_campaign --name fig14` (or fig15) for the saturation-calibrated
// reproduction.
#include <cstdio>
#include <cstring>

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "stats/report.h"

namespace {

rair::PatternKind parsePattern(const char* arg) {
  using rair::PatternKind;
  if (std::strcmp(arg, "TP") == 0) return PatternKind::Transpose;
  if (std::strcmp(arg, "BC") == 0) return PatternKind::BitComplement;
  if (std::strcmp(arg, "HS") == 0) return PatternKind::Hotspot;
  return PatternKind::UniformRandom;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rair;
  const PatternKind pattern =
      argc > 1 ? parsePattern(argv[1]) : PatternKind::UniformRandom;

  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::sixRegions(mesh);

  // Differentiated loads, apps 1 and 5 hot (flits/cycle/node).
  const std::vector<double> rates = {0.03, 0.22, 0.04, 0.05, 0.08, 0.22};
  const auto apps = scenarios::sixAppMixed(pattern, rates);

  std::printf("Six-app RNoC study, global traffic pattern = %s\n\n",
              std::string(patternName(pattern)).c_str());

  TextTable table({"scheme", "App0", "App1", "App2", "App3", "App4",
                   "App5", "mean", "vs RO_RR"});
  ScenarioResult baseline;
  for (const SchemeSpec& scheme :
       {schemeRoRr(), schemeRaDbar(), schemeRoRank(), schemeRaRair()}) {
    const auto r = runScenario(ScenarioSpec(mesh, regions)
                                   .withScheme(scheme)
                                   .withApps(apps)
                                   .withFastWindows());
    if (scheme.label == "RO_RR") baseline = r;
    const auto row = table.addRow();
    table.set(row, 0, scheme.label);
    for (AppId a = 0; a < 6; ++a)
      table.setNum(row, 1 + static_cast<std::size_t>(a),
                   r.appApl[static_cast<size_t>(a)], 1);
    table.setNum(row, 7, r.meanApl, 1);
    table.setPct(row, 8, r.meanReductionVs(baseline));
  }
  std::puts(table.toString().c_str());
  std::printf("Expected ordering (paper Fig. 14): RA_RAIR > RO_Rank > "
              "RA_DBAR > RO_RR.\n");
  return 0;
}

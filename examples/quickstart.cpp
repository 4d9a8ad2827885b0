// Quickstart: the smallest end-to-end use of the library.
//
// Builds an 8x8 mesh NoC whose halves host two applications — one light,
// one heavy, with most of the light application's packets crossing into
// the heavy half — and compares the round-robin baseline against RAIR.
//
//   $ ./quickstart
//   scheme   APL App0  APL App1  ...
//
// This is the Fig. 8 setup of the paper at fixed loads; see
// `rair_campaign --name fig09` for the fully calibrated sweep.
#include <cstdio>

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "stats/report.h"

int main() {
  using namespace rair;

  // 1. Topology and application placement: 64 nodes, two half-chip
  //    regions. The region map tags every router with its application.
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);

  // 2. Workload: App 0 injects 0.04 flits/cycle/node and sends 80% of its
  //    packets into App 1's region; App 1 runs hot (0.26) but stays local.
  const auto apps = scenarios::twoAppInterRegion(/*p=*/0.8,
                                                 /*app0Rate=*/0.04,
                                                 /*app1Rate=*/0.26);

  // 3. Run both schemes and print the comparison. The fast windows shrink
  //    the paper's 10K warmup / 100K measured 5x so the example runs in
  //    about a second.
  TextTable table({"scheme", "APL App0", "APL App1", "mean APL"});
  ScenarioResult baseline;
  for (const SchemeSpec& scheme : {schemeRoRr(), schemeRaRair()}) {
    const ScenarioResult r = runScenario(ScenarioSpec(mesh, regions)
                                             .withScheme(scheme)
                                             .withApps(apps)
                                             .withFastWindows());
    if (scheme.policy == PolicyKind::RoundRobin) baseline = r;
    const auto row = table.addRow();
    table.set(row, 0, scheme.label);
    table.setNum(row, 1, r.appApl[0]);
    table.setNum(row, 2, r.appApl[1]);
    table.setNum(row, 3, r.meanApl);
    if (scheme.policy == PolicyKind::Rair) {
      std::printf("RAIR changes App 0's latency by %s and App 1's by %s\n",
                  formatPct(-r.reductionVs(baseline, 0)).c_str(),
                  formatPct(-r.reductionVs(baseline, 1)).c_str());
    }
  }
  std::puts(table.toString().c_str());
  return 0;
}

// Regional behaviors of RNoC (paper Sec. II), demonstrated empirically.
//
// This example quantifies the four regional behaviors (RB-1..RB-4) that
// motivate RAIR, and the cost of the restricted alternative (LBDR):
//
//  RB-1/RB-2  multiple applications, each clustered into a region
//             (the six-region layout of Fig. 13);
//  RB-3       the majority of traffic is intra-region — printed as the
//             measured intra/inter split and the resulting mean hop
//             counts (global traffic travels much further);
//  RB-4       heterogeneous per-region intensity — printed per app;
//  LBDR       the fraction of application-to-core mappings a restricted
//             technique would allow (paper's ~14% example), versus RAIR
//             which allows all of them.
#include <cstdio>

#include "region/lbdr.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"

int main() {
  using namespace rair;
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::sixRegions(mesh);

  std::printf("RB-1/RB-2: %d applications clustered into regions:\n",
              regions.numApps());
  for (AppId a = 0; a < regions.numApps(); ++a)
    std::printf("  app %d: %zu cores\n", a, regions.nodesOf(a).size());

  // Differentiated loads (RB-4): apps 1 and 5 hot.
  const std::vector<double> rates = {0.03, 0.20, 0.04, 0.05, 0.08, 0.20};
  const auto apps = scenarios::sixAppMixed(PatternKind::UniformRandom, rates);

  AssembledScenario as = assembleScenario(ScenarioSpec(mesh, regions)
                                              .withScheme(schemeRoRr())
                                              .withApps(apps)
                                              .withFastWindows());

  // Instrument the run to split intra- vs inter-region traffic.
  struct RegionSplit final : SimObserver {
    const Mesh* mesh = nullptr;
    const RegionMap* regions = nullptr;
    std::uint64_t intraPkts = 0, interPkts = 0;
    double intraLat = 0, interLat = 0, intraHops = 0, interHops = 0;
    void onDelivery(const Packet& p) override {
      if (!mesh->contains(p.src)) return;
      const bool intra = regions->sameRegion(p.src, p.dst);
      (intra ? intraPkts : interPkts)++;
      (intra ? intraLat : interLat) += static_cast<double>(p.totalLatency());
      (intra ? intraHops : interHops) += p.hops;
    }
  } split;
  split.mesh = &mesh;
  split.regions = &regions;
  as.sim->observers().attach(&split);
  const auto result = as.sim->run();

  const double total = static_cast<double>(split.intraPkts + split.interPkts);
  std::printf("\nRB-3: intra-region traffic %.1f%%, inter-region %.1f%%\n",
              100.0 * split.intraPkts / total, 100.0 * split.interPkts / total);
  std::printf("  intra: mean %.1f cycles over %.1f hops\n",
              split.intraLat / split.intraPkts, split.intraHops / split.intraPkts);
  std::printf("  inter: mean %.1f cycles over %.1f hops  <- the critical, "
              "long-range minority\n",
              split.interLat / split.interPkts, split.interHops / split.interPkts);

  std::printf("\nRB-4: per-application APL (heterogeneous load):\n");
  for (AppId a = 0; a < 6; ++a)
    std::printf("  app %d at %.2f flits/cycle/node -> APL %.1f\n", a,
                rates[static_cast<size_t>(a)], result.stats.appApl(a));

  std::printf("\nRestricted techniques (LBDR) would require every region "
              "to contain a memory controller:\n");
  std::printf("  this six-region mapping valid under LBDR? %s\n",
              lbdrMappingValid(regions, mesh.cornerNodes()) ? "yes" : "no");
  std::printf("  fraction of 16-core/4-MC/4-app mappings LBDR allows: "
              "%.1f%% (paper: ~14%%)\n",
              100.0 * lbdrValidMappingFraction(16, 4, 4, 4));
  std::printf("  RAIR places no restriction: 100%%.\n");
  return 0;
}

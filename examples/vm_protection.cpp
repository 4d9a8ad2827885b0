// VM protection under adversarial traffic (the paper's Fig. 16/17 story).
//
// Four PARSEC-like applications — blackscholes, swaptions, fluidanimate,
// raytrace — run in the quadrants of an 8x8 mesh with request/reply cache
// traffic (Table 1 timings). A malicious or buggy agent then floods the
// chip with uniform traffic. The example prints each application's APL
// slowdown under RO_RR and RA_RAIR: round-robin lets the flood degrade
// everyone, while RAIR classifies the flood as foreign traffic in every
// region and dynamically deprioritizes it.
//
// Usage: vm_protection [floodRate]
//   floodRate: adversarial load in flits/cycle/node (default 0.22).
#include <cstdio>
#include <cstdlib>

#include "scenarios/parsec_scenario.h"
#include "sim/scenario.h"
#include "stats/report.h"

int main(int argc, char** argv) {
  using namespace rair;
  const double floodRate = argc > 1 ? std::atof(argv[1]) : 0.22;

  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  const auto benchmarks = scenarios::fig16Benchmarks();

  SimConfig cfg;
  cfg.warmupCycles = 2'000;
  cfg.measureCycles = 20'000;

  std::printf("Adversarial flood: %.2f flits/cycle/node, chip-wide uniform "
              "random\n\n",
              floodRate);

  TextTable table({"scheme", "blackscholes", "swaptions", "fluidanimate",
                   "raytrace", "mean slowdown"});
  for (const SchemeSpec& scheme : {schemeRoRr(), schemeRaRair()}) {
    const ScenarioSpec clean = ScenarioSpec(mesh, regions)
                                   .withConfig(cfg)
                                   .withScheme(scheme)
                                   .withParsecApps(benchmarks);
    const auto base = runScenario(clean);
    const auto atk =
        runScenario(ScenarioSpec(clean).withAdversarialRate(floodRate));

    const auto row = table.addRow();
    table.set(row, 0, scheme.label);
    double sum = 0;
    for (std::size_t a = 0; a < benchmarks.size(); ++a) {
      const double slowdown = atk.appApl[a] / base.appApl[a];
      table.setNum(row, 1 + a, slowdown);
      sum += slowdown;
    }
    table.setNum(row, 5, sum / static_cast<double>(benchmarks.size()));
  }
  std::puts(table.toString().c_str());
  std::printf("The paper reports mean slowdowns of 1.92x (RO_RR) vs 1.18x "
              "(RA_RAIR) at its flood rate; the ordering is the claim.\n");
  return 0;
}

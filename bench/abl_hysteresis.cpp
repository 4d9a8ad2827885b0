// Ablation: DPA hysteresis width Δ.
//
// Paper Sec. IV.C: "values of Δ between 0.1~0.3 typically render better
// performance with the best case achieved at around 0.2". We sweep Δ over
// the Fig. 12 scenarios (where DPA transitions actually fire) and report
// the mean APL of the full RAIR scheme.
#include "bench_common.h"

namespace rair::bench {
namespace {

const Mesh& mesh() {
  static Mesh m(8, 8);
  return m;
}
const RegionMap& regions() {
  static RegionMap rm = RegionMap::quadrants(mesh());
  return rm;
}

double quadSaturation() {
  return ResultStore::instance().value("quadSat", [] {
    AppTrafficSpec shape;
    shape.app = 0;
    return appSaturationRate(mesh(), regions(), shape, paperSatOptions());
  });
}

const std::vector<double>& deltas() {
  static std::vector<double> ds = {0.0, 0.05, 0.1, 0.2, 0.3, 0.5};
  return ds;
}

std::vector<AppTrafficSpec> workload(char scen) {
  const double sat = quadSaturation();
  const double low = scenarios::kLowLoadFraction * sat;
  const double high = scenarios::kHighLoadFraction * sat;
  return scen == 'a' ? scenarios::fourAppLowTowardHigh(low, high)
                     : scenarios::fourAppHighTowardLow(low, high);
}

const ScenarioResult& cell(double delta, char scen) {
  const std::string key =
      std::string("d").append(formatNum(delta, 2)).append("/").append(1, scen);
  return ResultStore::instance().scenario(key, [&, delta, scen] {
    SchemeSpec s = schemeRaRair();
    s.rair.hysteresisDelta = delta;
    return runScenario(ScenarioSpec(mesh(), regions())
                           .withConfig(paperSimConfig())
                           .withScheme(s)
                           .withApps(workload(scen)));
  });
}

void printTable() {
  std::printf("\n=== Ablation: DPA hysteresis width Δ (RAIR mean APL on "
              "the Fig. 12 scenarios; lower is better) ===\n\n");
  TextTable t({"Δ", "mean APL (a)", "mean APL (b)", "combined"});
  for (double d : deltas()) {
    const auto& ra = cell(d, 'a');
    const auto& rb = cell(d, 'b');
    const auto row = t.addRow();
    t.setNum(row, 0, d, 2);
    t.setNum(row, 1, ra.meanApl);
    t.setNum(row, 2, rb.meanApl);
    t.setNum(row, 3, (ra.meanApl + rb.meanApl) / 2.0);
  }
  std::puts(t.toString().c_str());
  std::printf("Paper reference: Δ in [0.1, 0.3] works well, best around "
              "0.2.\n");
}

}  // namespace
}  // namespace rair::bench

int main(int argc, char** argv) {
  using namespace rair;
  using namespace rair::bench;
  for (double d : deltas()) {
    for (char scen : {'a', 'b'}) {
      benchmark::RegisterBenchmark(
          ("abl_hysteresis/delta=" + formatNum(d, 2) + "/" + scen).c_str(),
          [d, scen](benchmark::State& st) {
            for (auto _ : st) setAplCounters(st, cell(d, scen));
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  return runBenchMain(argc, argv, printTable);
}

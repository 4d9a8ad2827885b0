// Core hot-path microbenchmark: raw simulated-cycles/sec and
// flit-hops/sec of the warm per-cycle loop (NIC tick + router pipeline +
// congestion history), with no scenario termination logic in the way.
//
// This is the repo's performance baseline: CI runs it in Release mode and
// tools/perf_check.py fails the build on a large regression against the
// checked-in BENCH_core_hotpath.json (see EXPERIMENTS.md, "Performance
// baseline"). Regenerate the baseline on intentional perf changes with:
//
//   ./build/bench/core_hotpath --benchmark_format=json
//       --benchmark_out=BENCH_core_hotpath.json   (one command line)
//
// The workload is the fig09 p=100 cell shape (App 0 fully inter-region at
// 10% of half-mesh saturation, App 1 local) with App 1 swept across the
// load regimes that dominate campaign wall time: low (10% of saturation),
// knee (85%) and past saturation (110%).
#include <benchmark/benchmark.h>
#include <time.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "metrics/recorder.h"
#include "routing/tables.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "sim/shard.h"
#include "snapshot/state_file.h"

namespace rair {
namespace {

/// Calibrated half-mesh saturation of the fig09 campaign (the
/// "halves/halfSat" record); hard-coded so the benchmark starts instantly
/// and the workload is identical on every machine.
constexpr double kHalfSat = 0.38195418397913583;
/// The same saturation on the 16x16 mesh (perfbench's kHalfSat16, from
/// `rair_perfbench --calibrate-knee16`).
constexpr double kHalfSat16 = 0.20444251195062507;

constexpr Cycle kWarmupCycles = 5'000;
constexpr Cycle kCyclesPerIteration = 10'000;

/// Knobs beyond the scheme/load shape; defaults give the 8x8 loop on one
/// shard thread.
struct HotLoopOptions {
  int meshDim = 8;        ///< square mesh side (8 or 16)
  int shardThreads = 1;   ///< sharded cycle engine threads (>= 1)
  bool withMetrics = false;
  bool withSnapshots = false;
  LinkLayerKind linkLayer = LinkLayerKind::Ideal;
  double halfSat = kHalfSat;  ///< the loads are fractions of this
};

/// The hot-loop workload on `mesh`: measurement windows are irrelevant
/// here, so they are pushed out far enough that sources and stats behave
/// identically for the whole benchmark run.
ScenarioSpec hotLoopSpec(const Mesh& mesh, const RegionMap& regions,
                         const SchemeSpec& scheme, double app1Fraction,
                         const HotLoopOptions& opts) {
  SimConfig cfg = ScenarioSpec::windowPreset(/*fast=*/true);
  cfg.measureCycles = 1'000'000'000;  // never stop admitting packets
  return ScenarioSpec(mesh, regions)
      .withConfig(cfg)
      .withScheme(scheme)
      .withApps(scenarios::twoAppInterRegion(
          /*p=*/1.0, scenarios::kLowLoadFraction * opts.halfSat,
          app1Fraction * opts.halfSat))
      .withLinkLayer(opts.linkLayer)
      .withThreads(opts.shardThreads);
}

/// A warm, endlessly injectable simulation of hotLoopSpec.
struct HotLoop {
  Mesh mesh;
  RegionMap regions;
  AssembledScenario as;
  std::optional<metrics::MetricsRecorder> recorder;
  std::optional<snapshot::RunSnapshots> snaps;

  HotLoop(const SchemeSpec& scheme, double app1Fraction,
          HotLoopOptions opts = {})
      : mesh(opts.meshDim, opts.meshDim), regions(RegionMap::halves(mesh)) {
    const ScenarioSpec spec =
        hotLoopSpec(mesh, regions, scheme, app1Fraction, opts);
    as = assembleScenario(spec);
    Simulator* sim = as.sim.get();
    if (opts.withMetrics) {
      // The default-level recorder, exactly as runScenario() attaches it;
      // the *_metrics benchmark variants measure its per-cycle overhead
      // (tools/perf_check.py --paired-suffix guards it in CI).
      metrics::MetricsOptions mo;  // Counters level, no sinks
      recorder.emplace(sim->network(), regions, mo, as.numApps,
                       kWarmupCycles);
      sim->observers().attach(&*recorder);
    }
    if (opts.withSnapshots) {
      // runScenario's snapshot observer attached with no save point (the
      // spec requests no warm cache and no checkpoint): the *_snapshot
      // variants measure its per-cycle save check, the only cost a run
      // pays while no save is due.
      snaps.emplace(spec, *sim);
      sim->observers().attach(&*snaps);
    }
    sim->begin();
    for (Cycle c = 0; c < kWarmupCycles; ++c) sim->stepCycle();
  }
};

/// CPU seconds this process has used so far, every thread included.
double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void BM_hotpath(benchmark::State& st, const SchemeSpec& scheme,
                double app1Fraction, HotLoopOptions opts = {}) {
  HotLoop loop(scheme, app1Fraction, opts);
  const std::uint64_t hops0 = loop.as.sim->network().totalFlitsTraversed();
  std::uint64_t cycles = 0;
  const double cpu0 = processCpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();
  for (auto _ : st) {
    for (Cycle c = 0; c < kCyclesPerIteration; ++c) loop.as.sim->stepCycle();
    cycles += kCyclesPerIteration;
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall0;
  // Process CPU over wall time: the cores a cell kept busy, shard workers
  // and spinning barrier waits included (cpu_time counts the main thread
  // only).
  st.counters["cpu_per_wall"] =
      (processCpuSeconds() - cpu0) / wall.count();
  const std::uint64_t hops =
      loop.as.sim->network().totalFlitsTraversed() - hops0;
  st.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  st.counters["flit_hops_per_sec"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
  st.counters["in_flight"] =
      static_cast<double>(loop.as.sim->inFlight());
}

// Every hot-loop bench times wall clock (UseRealTime): the kIsRate
// counters then divide by real time, so a sharded cell's cycles_per_sec
// counts its worker threads and barrier waits instead of only the main
// thread's CPU time.
#define RAIR_HOTPATH_BENCH(name, scheme, fraction)               \
  BENCHMARK_CAPTURE(BM_hotpath, name, scheme, fraction)          \
      ->Unit(benchmark::kMillisecond)                            \
      ->UseRealTime()

RAIR_HOTPATH_BENCH(ro_rr_low, schemeRoRr(), 0.10);
RAIR_HOTPATH_BENCH(ro_rr_knee, schemeRoRr(), 0.85);
RAIR_HOTPATH_BENCH(ro_rr_saturated, schemeRoRr(), 1.10);
RAIR_HOTPATH_BENCH(ra_rair_low, schemeRaRair(), 0.10);
RAIR_HOTPATH_BENCH(ra_rair_knee, schemeRaRair(), 0.85);
RAIR_HOTPATH_BENCH(ra_rair_saturated, schemeRaRair(), 1.10);
// DBAR is the one routing kind that reads the side-band congestion
// history: its per-query h-hop sums are priced here.
RAIR_HOTPATH_BENCH(ra_dbar_knee, schemeRaDbar(), 0.85);

// Same knee workloads with the default-level metrics recorder attached:
// the "_metrics" suffix pairs each with its bare twin so perf_check.py
// can bound the instrumentation overhead (<= 2% on cycles_per_sec).
BENCHMARK_CAPTURE(BM_hotpath, ro_rr_knee_metrics, schemeRoRr(), 0.85,
                  HotLoopOptions{.withMetrics = true})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee_metrics, schemeRaRair(), 0.85,
                  HotLoopOptions{.withMetrics = true})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same knee workloads with the snapshot observer attached but no save
// due: the "_snapshot" suffix pairs each with its bare twin so
// perf_check.py can bound the per-cycle save check's overhead (<= 2%).
BENCHMARK_CAPTURE(BM_hotpath, ro_rr_knee_snapshot, schemeRoRr(), 0.85,
                  HotLoopOptions{.withSnapshots = true})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee_snapshot, schemeRaRair(), 0.85,
                  HotLoopOptions{.withSnapshots = true})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same knee workloads on the retransmitting link layer with zero
// corruption ("_retx0" pairs with the bare twin): fault-free retx is the
// genuinely modeled protocol with no recovery ever firing — sequence
// tagging, replay-buffer push/retire, cumulative-ACK bookkeeping and the
// per-link per-cycle pump. That work is inherent to the model, so the
// perf_check.py paired bound holds it near its measured cost (<= 35%)
// rather than pretending it is free; the ideal layer is the one that
// must stay at pre-refactor speed (guarded by the checked-in baseline).
BENCHMARK_CAPTURE(BM_hotpath, ro_rr_knee_retx0, schemeRoRr(), 0.85,
                  HotLoopOptions{.linkLayer = LinkLayerKind::Retx})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee_retx0, schemeRaRair(), 0.85,
                  HotLoopOptions{.linkLayer = LinkLayerKind::Retx})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// 16x16 mesh (256 nodes), the workload size where intra-run parallelism
// pays: the bare one-thread cell and the thread sweep, twice. The
// "_knee16" cells run at 70% of the 16x16 half-mesh saturation (the
// perfbench knee16 shape). The "_saturated16" cells keep the 8x8 knee's
// loads, which put App 1 at ~159% of the 16x16 saturation. Speedup at t8
// depends on physical cores; BENCH_core_hotpath.json records the machine
// it was generated on.
#define RAIR_HOTPATH_BENCH16(name, fraction, saturation, threads)       \
  BENCHMARK_CAPTURE(BM_hotpath, name, schemeRaRair(), fraction,         \
                    HotLoopOptions{.meshDim = 16,                       \
                                   .shardThreads = threads,             \
                                   .halfSat = saturation})              \
      ->Unit(benchmark::kMillisecond)                                   \
      ->UseRealTime()

RAIR_HOTPATH_BENCH16(ra_rair_knee16, 0.70, kHalfSat16, 1);
RAIR_HOTPATH_BENCH16(ra_rair_knee16_t2, 0.70, kHalfSat16, 2);
RAIR_HOTPATH_BENCH16(ra_rair_knee16_t4, 0.70, kHalfSat16, 4);
RAIR_HOTPATH_BENCH16(ra_rair_knee16_t8, 0.70, kHalfSat16, 8);
RAIR_HOTPATH_BENCH16(ra_rair_saturated16, 0.85, kHalfSat, 1);
RAIR_HOTPATH_BENCH16(ra_rair_saturated16_t2, 0.85, kHalfSat, 2);
RAIR_HOTPATH_BENCH16(ra_rair_saturated16_t4, 0.85, kHalfSat, 4);
RAIR_HOTPATH_BENCH16(ra_rair_saturated16_t8, 0.85, kHalfSat, 8);

// Assembly cost: everything assembleScenario builds before the first
// cycle (routers with their VC buffers, NICs, links with their wires,
// routing tables, sources) for the knee16 workload at one shard thread.
// Reports assemblies_per_sec; tearing the scenario down is not timed. CI
// bounds it against the baseline ("--metric assemblies_per_sec").
void BM_assemble(benchmark::State& st, double app1Fraction,
                 HotLoopOptions opts) {
  const Mesh mesh(opts.meshDim, opts.meshDim);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      hotLoopSpec(mesh, regions, schemeRaRair(), app1Fraction, opts);
  std::uint64_t assemblies = 0;
  for (auto _ : st) {
    std::optional<AssembledScenario> as(assembleScenario(spec));
    benchmark::DoNotOptimize(as->sim.get());
    st.PauseTiming();
    as.reset();
    st.ResumeTiming();
    ++assemblies;
  }
  st.counters["assemblies_per_sec"] = benchmark::Counter(
      static_cast<double>(assemblies), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_assemble, ra_rair_knee16, 0.70,
                  HotLoopOptions{.meshDim = 16, .halfSat = kHalfSat16})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Topology-event (reconfiguration) cost: the per-event price of repairing
// the routing tables after a link flap, measured on a 32x32 mesh
// pre-partitioned into 16 disjoint 8x8 regions (every inter-region
// channel dead). An intra-region flap then dirties exactly one 64-node
// component, the shape where incremental repair pays: the bare twin
// rebuilds all 1024 nodes per event, "_inc" repairs only the affected
// region. These report events_per_sec instead of cycles_per_sec — the
// per-cycle passes above skip them — and perf_check.py's
// "--metric events_per_sec --paired-suffix _inc:-4.0" pass fails the
// build unless the incremental engine beats the full rebuild by >= 5x.
void BM_topoChurn(benchmark::State& st, bool incremental) {
  Mesh mesh(32, 32);
  RoutingTables tables(mesh);
  for (NodeId v = 0; v < mesh.numNodes(); ++v) {
    const Coord c = mesh.coordOf(v);
    if (c.x % 8 == 7 && mesh.neighbor(v, Dir::East))
      tables.setLinkDead(v, Dir::East, true);
    if (c.y % 8 == 7 && mesh.neighbor(v, Dir::South))
      tables.setLinkDead(v, Dir::South, true);
  }
  tables.recompute();

  const bool saved = RoutingTables::forceFullRebuildForTest;
  RoutingTables::forceFullRebuildForTest = !incremental;
  const NodeId flap = mesh.nodeAt({3, 3});  // interior of region (0, 0)
  std::uint64_t events = 0;
  for (auto _ : st) {
    // Kill + revive the same channel: two topology events per iteration,
    // table state identical at every iteration boundary.
    tables.setLinkDead(flap, Dir::East, true);
    tables.commit();
    tables.setLinkDead(flap, Dir::East, false);
    tables.commit();
    events += 2;
    benchmark::DoNotOptimize(tables.unreachablePairs());
  }
  RoutingTables::forceFullRebuildForTest = saved;
  st.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_topoChurn, topo_churn32, /*incremental=*/false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_topoChurn, topo_churn32_inc, /*incremental=*/true)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rair

int main(int argc, char** argv) {
  // Host context for the recorded baseline: a wall-clock rate means
  // little without the cores it ran on. usable_cores is the affinity mask
  // capped by the cgroup CPU quota — the value the shard engine's
  // spin-or-park rule reads.
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::AddCustomContext("usable_cores",
                              std::to_string(rair::usableCores()));
  benchmark::AddCustomContext("compiler", __VERSION__);
  benchmark::AddCustomContext("build_type", RAIR_BUILD_TYPE);
  // The commit the binary was configured from.
  benchmark::AddCustomContext("git_sha", RAIR_GIT_SHA);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Core hot-path microbenchmark: raw simulated-cycles/sec and
// flit-hops/sec of the warm per-cycle loop (NIC tick + router pipeline +
// congestion propagation), with no scenario termination logic in the way.
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

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/recorder.h"
#include "routing/tables.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "sim/shard.h"

namespace rair {
namespace {

/// Calibrated half-mesh saturation of the fig09 campaign (the
/// "halves/halfSat" record); hard-coded so the benchmark starts instantly
/// and the workload is identical on every machine.
constexpr double kHalfSat = 0.38195418397913583;

constexpr Cycle kWarmupCycles = 5'000;
constexpr Cycle kCyclesPerIteration = 10'000;

/// Knobs beyond the scheme/load shape; defaults give the 8x8 loop on one
/// shard thread.
struct HotLoopOptions {
  int meshDim = 8;        ///< square mesh side (8 or 16)
  int shardThreads = 1;   ///< sharded cycle engine threads (>= 1)
  bool withMetrics = false;
  bool withSnapshotHook = false;
  LinkLayerKind linkLayer = LinkLayerKind::Ideal;
};

/// A warm, endlessly injectable simulation: measurement windows are
/// irrelevant here, so they are pushed out far enough that sources and
/// stats behave identically for the whole benchmark run.
struct HotLoop {
  Mesh mesh;
  RegionMap regions;
  std::unique_ptr<ArbiterPolicy> policy;
  std::unique_ptr<Simulator> sim;
  std::optional<metrics::MetricsRecorder> recorder;

  HotLoop(const SchemeSpec& scheme, double app1Fraction,
          HotLoopOptions opts = {})
      : mesh(opts.meshDim, opts.meshDim), regions(RegionMap::halves(mesh)) {
    const auto apps = scenarios::twoAppInterRegion(
        /*p=*/1.0, scenarios::kLowLoadFraction * kHalfSat,
        app1Fraction * kHalfSat);

    SimConfig cfg = ScenarioSpec::windowPreset(/*fast=*/true);
    cfg.measureCycles = 1'000'000'000;  // never stop admitting packets
    cfg.routing = scheme.routing;
    cfg.net.rairPartition = scheme.needsRairPartition();
    cfg.shardThreads = opts.shardThreads;
    cfg.net.linkLayer = opts.linkLayer;

    std::vector<double> intensities;
    for (const auto& a : apps) intensities.push_back(a.injectionRate);
    policy = makePolicy(scheme, intensities);
    sim = std::make_unique<Simulator>(mesh, regions, cfg, *policy, 2);
    std::uint64_t seed = 1;
    for (const auto& a : apps) {
      sim->addSource(
          std::make_unique<RegionalizedSource>(mesh, regions, a, seed));
      seed += 0x9E3779B9ull;
    }
    if (opts.withMetrics) {
      // The default-level recorder, exactly as runScenario() attaches it;
      // the *_metrics benchmark variants measure its per-cycle overhead
      // (tools/perf_check.py --paired-suffix guards it in CI).
      metrics::MetricsOptions mo;  // Counters level, no sinks
      recorder.emplace(sim->network(), regions, mo, /*numApps=*/2,
                       kWarmupCycles);
      sim->observers().attach(&*recorder);
    }
    if (opts.withSnapshotHook) {
      // An installed hook that never fires (save point at kNeverCycle, no
      // periodic interval): the *_snapshot variants measure the armed
      // per-cycle snapshot predicate, the only cost runScenario pays when
      // warm caching or checkpointing is requested but no save is due.
      sim->setSnapshotHook([](const Simulator&, Cycle) {}, kNeverCycle,
                           /*every=*/0);
    }
    sim->begin();
    for (Cycle c = 0; c < kWarmupCycles; ++c) sim->stepCycle();
  }
};

void BM_hotpath(benchmark::State& st, const SchemeSpec& scheme,
                double app1Fraction, HotLoopOptions opts = {}) {
  HotLoop loop(scheme, app1Fraction, opts);
  const std::uint64_t hops0 = loop.sim->network().totalFlitsTraversed();
  std::uint64_t cycles = 0;
  for (auto _ : st) {
    for (Cycle c = 0; c < kCyclesPerIteration; ++c) loop.sim->stepCycle();
    cycles += kCyclesPerIteration;
  }
  const std::uint64_t hops =
      loop.sim->network().totalFlitsTraversed() - hops0;
  st.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  st.counters["flit_hops_per_sec"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
  st.counters["in_flight"] =
      static_cast<double>(loop.sim->inFlight());
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

// Same knee workloads with a snapshot hook installed but never firing:
// the "_snapshot" suffix pairs each with its bare twin so perf_check.py
// can bound the armed snapshot predicate overhead (<= 2%).
BENCHMARK_CAPTURE(BM_hotpath, ro_rr_knee_snapshot, schemeRoRr(), 0.85,
                  HotLoopOptions{.withSnapshotHook = true})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee_snapshot, schemeRaRair(), 0.85,
                  HotLoopOptions{.withSnapshotHook = true})
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
// pays: the bare one-thread cell and the thread sweep. Speedup at t8
// depends on physical cores; BENCH_core_hotpath.json records the machine
// it was generated on.
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee16, schemeRaRair(), 0.85,
                  HotLoopOptions{.meshDim = 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee16_t2, schemeRaRair(), 0.85,
                  HotLoopOptions{.meshDim = 16, .shardThreads = 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee16_t4, schemeRaRair(), 0.85,
                  HotLoopOptions{.meshDim = 16, .shardThreads = 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_hotpath, ra_rair_knee16_t8, schemeRaRair(), 0.85,
                  HotLoopOptions{.meshDim = 16, .shardThreads = 8})
    ->Unit(benchmark::kMillisecond)
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
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

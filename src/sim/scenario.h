// Scenario runner: assembles a simulator from a scheme spec and a set of
// per-application traffic specs, runs it, and returns per-application APL
// — the shape every figure in the paper reports. The workload is either
// synthetic (AppTrafficSpec per application) or the Fig. 16/17 PARSEC
// request/reply model (one ParsecBenchmark per region); both run through
// the same assembler, observers, faults and metrics.
//
// The entry point is a single ScenarioSpec value type with named-chaining
// setters:
//
//   ScenarioResult r = runScenario(ScenarioSpec(mesh, regions)
//                                      .withScheme(schemeRaRair())
//                                      .withApps(apps)
//                                      .withSeed(7)
//                                      .withFastWindows());
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "metrics/metrics.h"
#include "region/region_map.h"
#include "sim/scheme.h"
#include "sim/simulator.h"
#include "snapshot/options.h"
#include "trace/parsec.h"
#include "traffic/generator.h"

namespace rair {

struct ScenarioResult {
  std::vector<double> appApl;  ///< per application (index = AppId)
  double meanApl = 0.0;        ///< over all measured packets
  RunResult run;

  /// Aggregate instrumentation of the run (absent when the spec disabled
  /// metrics collection with MetricsLevel::Off).
  std::optional<metrics::MetricsSummary> metrics;

  /// Degradation accounting of the fault plan (absent when the spec had no
  /// faults): drops, reroutes, unreachable pairs, degraded/recovery cycles.
  std::optional<fault::FaultStats> faultStats;

  /// Cycle the run resumed from via a checkpoint restore (0 when the run
  /// started from cycle zero). Volatile provenance, not a result — the
  /// simulated outcome is byte-identical either way.
  Cycle resumedFromCycle = 0;
  /// Whether the warm-up state was restored from the warm cache instead of
  /// simulated.
  bool warmRestored = false;

  /// Relative APL reduction of app `a` against a baseline result
  /// (positive = this scheme is faster). The paper's headline metric.
  /// A non-positive baseline APL (e.g. a cell that terminated via
  /// progress_timeout before measuring anything) yields 0 rather than a
  /// division by zero.
  double reductionVs(const ScenarioResult& baseline, AppId a) const {
    const double base = baseline.appApl[static_cast<size_t>(a)];
    if (!(base > 0.0)) return 0.0;
    return 1.0 - appApl[static_cast<size_t>(a)] / base;
  }
  double meanReductionVs(const ScenarioResult& baseline) const {
    if (!(baseline.meanApl > 0.0)) return 0.0;
    return 1.0 - meanApl / baseline.meanApl;
  }
};

/// Everything one scheme-on-one-workload run needs, as a single value
/// type. The mesh and region map are referenced, not owned — they must
/// outlive the spec.
struct ScenarioSpec {
  const Mesh* mesh = nullptr;
  const RegionMap* regions = nullptr;
  SimConfig config;
  SchemeSpec scheme;
  std::vector<AppTrafficSpec> apps;
  /// PARSEC request/reply workload (Figs. 16/17): benchmark i runs as
  /// application i in region i, on Table 1's two protocol classes, and
  /// every delivered request is answered by a 5-flit reply. Exclusive with
  /// `apps`. Hooked runs cannot snapshot, so warm caches and checkpoints
  /// skip them.
  std::vector<ParsecBenchmark> parsecApps;
  /// Chip-wide adversarial flood rate in flits/cycle/node (Fig. 17 uses
  /// 0.4); the flooder gets AppId = number of applications. 0 disables it.
  double adversarialRate = 0.0;
  std::uint64_t seed = 1;
  /// Instrumentation level and sink configuration of the run.
  metrics::MetricsOptions metrics;
  /// Snapshot behaviour: warm-state caching and/or mid-run checkpoints.
  snapshot::SnapshotOptions snap;
  /// Timed fault events applied during the run (empty = fault-free). Part
  /// of the scenario identity: the plan enters warm/full snapshot keys.
  fault::FaultPlan faults;
  /// Saturation calibration's early stop (see KneeVerdict). Not part of the
  /// scenario identity: excluded from warm/full snapshot keys.
  std::optional<KneeVerdict> kneeVerdict;

  ScenarioSpec(const Mesh& m, const RegionMap& r) : mesh(&m), regions(&r) {}

  /// The configuration the simulator actually runs with: `config` with the
  /// routing algorithm and RAIR VC partition normalized from the scheme,
  /// and Table 1's request/reply classes for a PARSEC workload.
  SimConfig effectiveConfig() const {
    SimConfig cfg = config;
    cfg.routing = scheme.routing;
    cfg.net.rairPartition = scheme.needsRairPartition();
    if (!parsecApps.empty()) cfg.net.numClasses = 2;
    return cfg;
  }

  /// The single source of truth for simulation windows: the paper's 10K
  /// warmup / 100K measured (Sec. V.A), or 5x-shrunk fast windows for
  /// smoke runs; both with a 500K drain limit.
  static SimConfig windowPreset(bool fast);

  // Named-chaining setters; each returns *this.
  ScenarioSpec& withConfig(const SimConfig& c) {
    config = c;
    return *this;
  }
  ScenarioSpec& withScheme(const SchemeSpec& s) {
    scheme = s;
    return *this;
  }
  ScenarioSpec& withApps(std::vector<AppTrafficSpec> a) {
    apps = std::move(a);
    return *this;
  }
  ScenarioSpec& withParsecApps(std::span<const ParsecBenchmark> b) {
    parsecApps.assign(b.begin(), b.end());
    return *this;
  }
  ScenarioSpec& withAdversarialRate(double rate) {
    adversarialRate = rate;
    return *this;
  }
  ScenarioSpec& withSeed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  /// Selects the link-layer implementation every channel is built with
  /// (default Ideal; Retx enables corrupt_flit fault plans).
  ScenarioSpec& withLinkLayer(LinkLayerKind kind) {
    config.net.linkLayer = kind;
    return *this;
  }
  /// Runs the simulation on `n` shards/worker threads of the sharded cycle
  /// engine (n >= 1, default 1); results and snapshots are byte-identical
  /// for every value. Excluded from warm/full scenario keys, so
  /// checkpoints and warm caches are shared across thread counts.
  ScenarioSpec& withThreads(int n) {
    config.shardThreads = n;
    return *this;
  }
  ScenarioSpec& withMetrics(const metrics::MetricsOptions& m) {
    metrics = m;
    return *this;
  }
  ScenarioSpec& withMetricsLevel(metrics::MetricsLevel level) {
    metrics.level = level;
    return *this;
  }
  /// Path prefix for the metrics file sinks (e.g. "out/fig11.").
  ScenarioSpec& withMetricsOut(std::string prefix) {
    metrics.outPrefix = std::move(prefix);
    return *this;
  }
  ScenarioSpec& withSnapshot(const snapshot::SnapshotOptions& s) {
    snap = s;
    return *this;
  }
  /// Attaches a fault plan; the runner assembles and arms a FaultInjector
  /// for it (and the oracle, when armed, becomes fault-aware).
  ScenarioSpec& withFaults(fault::FaultPlan plan) {
    faults = std::move(plan);
    return *this;
  }
  /// Arms saturation calibration's early stops: the run ends, not
  /// drained, once its APL is proven above the knee or it is abandoned.
  ScenarioSpec& withKneeVerdict(KneeVerdict v) {
    kneeVerdict = std::move(v);
    return *this;
  }
  /// Enables end-of-warm-up state caching in `dir`.
  ScenarioSpec& withWarmCache(std::string dir) {
    snap.warmCacheDir = std::move(dir);
    return *this;
  }
  /// Enables mid-run checkpointing to `path` every `every` cycles (and
  /// resume from it when the file already exists for this exact spec).
  ScenarioSpec& withCheckpoint(std::string path, Cycle every = 25'000) {
    snap.checkpointPath = std::move(path);
    snap.checkpointEvery = every;
    return *this;
  }
  /// Like withCheckpoint, but the runner derives a per-run file inside
  /// `dir` from the full scenario key (what the campaign runner uses).
  ScenarioSpec& withCheckpointDir(std::string dir, Cycle every = 25'000) {
    snap.checkpointDir = std::move(dir);
    snap.checkpointEvery = every;
    return *this;
  }
  /// Overwrites only the window fields of `config` (warmup, measure,
  /// drain limit) with the preset, keeping network knobs intact.
  ScenarioSpec& withWindows(bool fast) {
    const SimConfig w = windowPreset(fast);
    config.warmupCycles = w.warmupCycles;
    config.measureCycles = w.measureCycles;
    config.drainLimit = w.drainLimit;
    return *this;
  }
  ScenarioSpec& withFastWindows() { return withWindows(true); }
  ScenarioSpec& withPaperWindows() { return withWindows(false); }
};

/// Runs one scheme on one workload.
ScenarioResult runScenario(const ScenarioSpec& spec);

/// A simulator assembled from a spec but not yet run — the building block
/// runScenario, the continuation tests and the divergence bisector share.
/// The policy must outlive the simulator.
struct AssembledScenario {
  int numApps = 0;
  std::unique_ptr<ArbiterPolicy> policy;
  std::unique_ptr<Simulator> sim;
  /// Present and attached when the spec carried a non-empty fault plan.
  /// Declared after `sim` so its destructor (which detaches from the
  /// simulator) runs first.
  std::unique_ptr<fault::FaultInjector> injector;
};

AssembledScenario assembleScenario(const ScenarioSpec& spec);

/// Simulates `spec` from cycle zero to exactly `atCycle` and writes a
/// checkpoint there — how tests and tools fabricate the "interrupted run"
/// half of a continuation check. Returns false when the spec is not
/// snapshot-eligible or the write fails.
bool writeScenarioCheckpoint(const ScenarioSpec& spec, Cycle atCycle,
                             const std::string& path);

}  // namespace rair

#include "sim/scenario.h"

#include <algorithm>

#include "common/assert.h"
#include "metrics/recorder.h"
#include "snapshot/buffer.h"
#include "snapshot/checkpoint.h"
#include "snapshot/scenario_key.h"
#include "snapshot/warm_cache.h"

#ifdef RAIR_CHECKS
#include "check/oracle.h"
#endif

namespace rair {

SimConfig ScenarioSpec::windowPreset(bool fast) {
  SimConfig cfg;
  if (fast) {
    cfg.warmupCycles = 2'000;
    cfg.measureCycles = 20'000;
  } else {
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 100'000;
  }
  cfg.drainLimit = 500'000;
  return cfg;
}

namespace {

/// Stops ticking the wrapped source once the simulation clock reaches
/// `cutoff`, so an open-loop network can drain to empty afterwards.
struct GatedSource final : TrafficSource {
  GatedSource(std::unique_ptr<TrafficSource> s, Cycle c)
      : inner(std::move(s)), cutoff(c) {}
  void tick(InjectionSink& sink) override {
    if (sink.now() < cutoff) inner->tick(sink);
  }
  std::unique_ptr<TrafficSource> inner;
  Cycle cutoff;
};

}  // namespace

AssembledScenario assembleScenario(const ScenarioSpec& spec) {
  RAIR_CHECK_MSG(spec.mesh != nullptr && spec.regions != nullptr,
                 "ScenarioSpec without mesh/regions");
  const bool parsec = !spec.parsecApps.empty();
  RAIR_CHECK_MSG(static_cast<int>(!spec.apps.empty()) + parsec +
                         !spec.trace.empty() <= 1,
                 "ScenarioSpec with more than one workload");
  RAIR_CHECK(static_cast<int>(spec.parsecApps.size()) <=
             spec.regions->numApps());
  const bool adversarial = spec.adversarialRate > 0.0;
  int workloadApps = static_cast<int>(
      parsec ? spec.parsecApps.size() : spec.apps.size());
  for (const TraceRecord& r : spec.trace)
    workloadApps = std::max({workloadApps, spec.regions->numApps(), r.app + 1});
  const SimConfig cfg = spec.effectiveConfig();

  AssembledScenario as;
  as.numApps = workloadApps + (adversarial ? 1 : 0);

  // Oracle intensities for RO_Rank; a PARSEC request moves ~6 flits end to
  // end (1-flit request + 5-flit reply).
  std::vector<double> intensities;
  intensities.reserve(static_cast<size_t>(as.numApps));
  for (const auto& a : spec.apps) intensities.push_back(a.injectionRate);
  for (const auto b : spec.parsecApps)
    intensities.push_back(parsecProfile(b).requestRate * 6.0);
  // A trace fixes each app's load; RO_Rank only needs a total order.
  intensities.resize(static_cast<size_t>(workloadApps), 1.0);
  if (adversarial) intensities.push_back(spec.adversarialRate);

  as.policy = makePolicy(spec.scheme, intensities);
  as.sim = std::make_unique<Simulator>(*spec.mesh, *spec.regions, cfg,
                                       *as.policy, as.numApps);
  const auto add = [&](std::unique_ptr<TrafficSource> src) {
    if (spec.sourceCutoff != kNeverCycle)
      src = std::make_unique<GatedSource>(std::move(src), spec.sourceCutoff);
    as.sim->addSource(std::move(src));
  };
  std::uint64_t seed = spec.seed;
  for (const auto& a : spec.apps) {
    add(std::make_unique<RegionalizedSource>(*spec.mesh, *spec.regions, a,
                                             seed));
    seed += 0x9E3779B9ull;
  }
  for (std::size_t i = 0; i < spec.parsecApps.size(); ++i) {
    add(std::make_unique<ParsecSource>(
        *spec.mesh, *spec.regions, static_cast<AppId>(i),
        parsecProfile(spec.parsecApps[i]), seed));
    seed += 0x9E3779B9ull;
  }
  if (!spec.trace.empty())
    add(std::make_unique<TraceReplaySource>(spec.trace));
  if (adversarial) {
    add(std::make_unique<AdversarialSource>(
        *spec.mesh, static_cast<AppId>(workloadApps), spec.adversarialRate,
        seed));
  }
  if (parsec) {
    installRequestReplyHook(*as.sim, *spec.mesh, MemoryTimings{},
                            cfg.warmupCycles + cfg.measureCycles,
                            static_cast<AppId>(workloadApps));
  }
  if (!spec.faults.empty()) {
    as.injector =
        std::make_unique<fault::FaultInjector>(*as.sim, spec.faults);
    as.injector->attach();
  }
  return as;
}

namespace {

/// Whether this run's snapshots are sound: every piece of process state
/// that shapes results must be inside the snapshot. Summary/Series metrics
/// and file sinks accumulate outside it (a recorder attached after a
/// restore has not seen the earlier cycles), so snapshot paths are limited
/// to runs where metrics stay at the default Counters level with no sinks.
bool snapshotEligible(const ScenarioSpec& spec, const Simulator& sim) {
  return spec.snap.enabled() && sim.snapshotSupported() &&
         spec.metrics.level <= metrics::MetricsLevel::Counters &&
         spec.metrics.outPrefix.empty();
}

}  // namespace

ScenarioResult runScenario(const ScenarioSpec& spec) {
  AssembledScenario as = assembleScenario(spec);
  Simulator& sim = *as.sim;
  const SimConfig cfg = spec.effectiveConfig();
  const int numApps = as.numApps;

  // Snapshot plumbing, before any observer attaches: restores rebuild the
  // complete simulator state, and the oracle/recorder re-derive their view
  // from whatever state they attach to.
  Cycle resumedFrom = 0;
  bool warmRestored = false;
  std::uint64_t fullKey = 0;
  std::uint64_t warmKey = 0;
  std::string ckptPath;
  if (snapshotEligible(spec, sim)) {
    if (!spec.snap.checkpointPath.empty() ||
        !spec.snap.checkpointDir.empty()) {
      fullKey = snapshot::fullStateKey(spec);
      ckptPath = spec.snap.checkpointPath;
      if (ckptPath.empty()) {
        snapshot::ensureDir(spec.snap.checkpointDir);
        ckptPath = spec.snap.checkpointDir + "/" +
                   snapshot::checkpointFileName(fullKey);
      }
      snapshot::tryRestoreCheckpoint(sim, ckptPath, fullKey, &resumedFrom);
    }
    const bool wantWarm =
        !spec.snap.warmCacheDir.empty() && cfg.warmupCycles > 0;
    bool wantWarmStore = false;
    if (resumedFrom == 0 && wantWarm) {
      warmKey = snapshot::warmStateKey(spec);
      warmRestored = snapshot::tryRestoreWarm(sim, spec.snap.warmCacheDir,
                                              warmKey, cfg.warmupCycles);
      wantWarmStore = !warmRestored;
    }
    const bool wantCheckpoints =
        !ckptPath.empty() && spec.snap.checkpointEvery != 0;
    if (wantWarmStore || wantCheckpoints) {
      const Cycle warmPoint =
          wantWarmStore ? cfg.warmupCycles : kNeverCycle;
      const Cycle every =
          wantCheckpoints ? spec.snap.checkpointEvery : Cycle{0};
      sim.setSnapshotHook(
          [&spec, &ckptPath, warmKey, fullKey, warmPoint, every](
              const Simulator& s, Cycle c) {
            if (c == warmPoint)
              snapshot::storeWarm(s, spec.snap.warmCacheDir, warmKey);
            if (every != 0 && c != 0 && c % every == 0)
              snapshot::storeCheckpoint(s, ckptPath, fullKey);
          },
          warmPoint, every);
    }
  }

  ScenarioResult out;
#ifdef RAIR_CHECKS
  // Armed build: every scenario runs under the simulation oracle with
  // amortized scan cadence and fail-fast semantics. The oracle is a pure
  // observer, so results are bit-identical to the unarmed build.
  check::NetworkOracle oracle(sim.network(), sim.ledger(),
                              check::OracleOptions::armed());
  if (as.injector) oracle.attachFaults(as.injector.get());
  sim.observers().attach(&oracle);
#endif
  // The recorder is likewise a pure observer: results stay bit-identical
  // whether or not instrumentation is attached.
  std::optional<metrics::MetricsRecorder> recorder;
  if (spec.metrics.enabled()) {
    recorder.emplace(sim.network(), *spec.regions, spec.metrics, numApps,
                     cfg.warmupCycles + cfg.measureCycles);
    sim.observers().attach(&*recorder);
  }
  sim.setKneeVerdict(spec.kneeVerdict);
  out.run = sim.run();
  if (!ckptPath.empty()) snapshot::removeCheckpoint(ckptPath);
  if (recorder) recorder->finalize(out.run.cyclesRun);
#ifdef RAIR_CHECKS
  // Cross-validate the metrics census against the oracle's own delivery
  // counts before closing the audit.
  if (recorder)
    oracle.crossValidateTotals(out.run.cyclesRun,
                               recorder->deliveredPackets(),
                               recorder->deliveredFlits());
  oracle.finish(out.run.cyclesRun);
#endif
  if (recorder) {
    RAIR_CHECK_MSG(recorder->writeSinks(), "metrics sink write failed");
    out.metrics = recorder->summary();
  }
  if (as.injector) out.faultStats = as.injector->stats();
  out.resumedFromCycle = resumedFrom;
  out.warmRestored = warmRestored;
  out.meanApl = out.run.stats.overallApl();
  out.appApl.resize(static_cast<size_t>(numApps));
  for (AppId a = 0; a < numApps; ++a)
    out.appApl[static_cast<size_t>(a)] = out.run.stats.appApl(a);
  return out;
}

bool writeScenarioCheckpoint(const ScenarioSpec& spec, Cycle atCycle,
                             const std::string& path) {
  AssembledScenario as = assembleScenario(spec);
  if (!as.sim->snapshotSupported()) return false;
  as.sim->begin();
  while (as.sim->now() < atCycle) as.sim->stepCycle();
  return snapshot::storeCheckpoint(*as.sim, path,
                                   snapshot::fullStateKey(spec));
}

}  // namespace rair

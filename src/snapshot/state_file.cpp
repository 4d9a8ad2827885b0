#include "snapshot/state_file.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "sim/scenario.h"
#include "snapshot/buffer.h"
#include "snapshot/scenario_key.h"

namespace rair::snapshot {

namespace {

struct AtomicStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> stores{0};
  std::atomic<std::uint64_t> warmupCyclesSaved{0};
};

AtomicStats& counters() {
  static AtomicStats stats;
  return stats;
}

void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

/// "<prefix>-<16 hex digits>.snap".
std::string keyedName(const char* prefix, std::uint64_t key) {
  char name[40];
  std::snprintf(name, sizeof name, "%s-%016" PRIx64 ".snap", prefix, key);
  return name;
}

}  // namespace

WarmCacheStats warmCacheStats() {
  const AtomicStats& c = counters();
  WarmCacheStats s;
  s.hits = c.hits.load(std::memory_order_relaxed);
  s.misses = c.misses.load(std::memory_order_relaxed);
  s.stores = c.stores.load(std::memory_order_relaxed);
  s.warmupCyclesSaved = c.warmupCyclesSaved.load(std::memory_order_relaxed);
  return s;
}

void resetWarmCacheStats() {
  AtomicStats& c = counters();
  for (auto* a : {&c.hits, &c.misses, &c.stores, &c.warmupCyclesSaved})
    a->store(0, std::memory_order_relaxed);
}

std::string warmSnapshotPath(const std::string& dir, std::uint64_t warmKey) {
  return dir + "/" + keyedName("warm", warmKey);
}

std::string checkpointFileName(std::uint64_t fullKey) {
  return keyedName("ckpt", fullKey);
}

bool storeState(const Simulator& sim, const std::string& path,
                std::uint64_t key) {
  Writer w;
  sim.save(w);
  SnapshotHeader header;
  header.stateVersion = kStateVersion;
  header.scenarioKey = key;
  header.cycle = sim.now();
  return writeSnapshotFile(path, header, w.payload());
}

std::optional<Cycle> restoreState(Simulator& sim, const std::string& path,
                                  std::uint64_t key) {
  auto snap = readSnapshotFile(path);
  if (!snap || snap->header.stateVersion != kStateVersion ||
      snap->header.scenarioKey != key)
    return std::nullopt;
  Reader r(snap->payload);
  sim.restore(r);
  return snap->header.cycle;
}

RunSnapshots::RunSnapshots(const ScenarioSpec& spec, Simulator& sim)
    : sim_(&sim) {
  const SnapshotOptions& opts = spec.snap;
  if (!opts.enabled() ||
      spec.metrics.level > metrics::MetricsLevel::Counters)
    return;
  if (!opts.checkpointDir.empty()) {
    fullKey_ = fullStateKey(spec);
    ensureDir(opts.checkpointDir);
    checkpointPath_ = opts.checkpointDir + "/" + checkpointFileName(fullKey_);
    resumedFrom_ = restoreState(sim, checkpointPath_, fullKey_).value_or(0);
    every_ = opts.checkpointEvery;
  }
  const Cycle warmup = spec.config.warmupCycles;
  if (resumedFrom_ == 0 && !opts.warmCacheDir.empty() && warmup > 0) {
    warmKey_ = warmStateKey(spec);
    warmPath_ = warmSnapshotPath(opts.warmCacheDir, warmKey_);
    warmRestored_ = restoreState(sim, warmPath_, warmKey_).has_value();
    if (warmRestored_) {
      bump(counters().hits);
      bump(counters().warmupCyclesSaved, warmup);
    } else {
      bump(counters().misses);
      if (ensureDir(opts.warmCacheDir)) warmAt_ = warmup;
    }
  }
}

void RunSnapshots::onCycleBegin(Cycle now) {
  if (now == warmAt_ && storeState(*sim_, warmPath_, warmKey_))
    bump(counters().stores);
  if (every_ != 0 && now != 0 && now % every_ == 0)
    storeState(*sim_, checkpointPath_, fullKey_);
}

void RunSnapshots::finish() const {
  if (!checkpointPath_.empty()) removeFile(checkpointPath_);
}

}  // namespace rair::snapshot

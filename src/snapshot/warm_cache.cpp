#include "snapshot/warm_cache.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "sim/simulator.h"
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
  char name[32];
  std::snprintf(name, sizeof name, "warm-%016" PRIx64 ".snap", warmKey);
  return dir + "/" + name;
}

bool tryRestoreWarm(Simulator& sim, const std::string& dir,
                    std::uint64_t warmKey, Cycle warmupCycles) {
  auto snap = readSnapshotFile(warmSnapshotPath(dir, warmKey));
  if (!snap || snap->header.stateVersion != kStateVersion ||
      snap->header.scenarioKey != warmKey) {
    bump(counters().misses);
    return false;
  }
  Reader r(snap->payload);
  sim.restore(r);
  bump(counters().hits);
  bump(counters().warmupCyclesSaved, warmupCycles);
  return true;
}

bool storeWarm(const Simulator& sim, const std::string& dir,
               std::uint64_t warmKey) {
  if (!ensureDir(dir)) return false;
  Writer w;
  sim.save(w);
  SnapshotHeader header;
  header.stateVersion = kStateVersion;
  header.scenarioKey = warmKey;
  header.cycle = sim.now();
  if (!writeSnapshotFile(warmSnapshotPath(dir, warmKey), header,
                         w.payload()))
    return false;
  bump(counters().stores);
  return true;
}

}  // namespace rair::snapshot

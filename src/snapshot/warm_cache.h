// Warm-state cache: end-of-warm-up simulator states, content-addressed by
// the canonical warm scenario key.
//
// Every campaign cell and every SaturationFinder probe begins by simulating
// an identical warm-up for its (scheme, workload, seed) tuple. The cache
// stores the complete simulator state at the end of that warm-up once, so
// any later run with the same warm key restores it in microseconds instead
// of re-simulating thousands of cycles. Restores are exact-key only — a
// near-miss (different rate, seed, scheme knob) reruns the warm-up and
// stores its own entry.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace rair {
class Simulator;
}

namespace rair::snapshot {

/// Process-wide cache accounting, for tests and for reporting how much
/// warm-up work the cache eliminated. Concurrent runs (campaign jobs,
/// parallel saturation probes) count into relaxed atomics; this struct is
/// a copy of their values.
struct WarmCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  /// Warm-up cycles that were restored instead of simulated.
  std::uint64_t warmupCyclesSaved = 0;
};

WarmCacheStats warmCacheStats();
void resetWarmCacheStats();

/// File a given warm key lives at inside `dir`.
std::string warmSnapshotPath(const std::string& dir, std::uint64_t warmKey);

/// Restores `sim` from the cached end-of-warm-up state for `warmKey` if a
/// valid entry exists. Counts a hit (crediting `warmupCycles` saved) or a
/// miss. Returns true on restore.
bool tryRestoreWarm(Simulator& sim, const std::string& dir,
                    std::uint64_t warmKey, Cycle warmupCycles);

/// Stores the simulator's current state as the warm entry for `warmKey`.
/// Creates `dir` if needed; returns false on I/O failure (the run simply
/// proceeds uncached).
bool storeWarm(const Simulator& sim, const std::string& dir,
               std::uint64_t warmKey);

}  // namespace rair::snapshot

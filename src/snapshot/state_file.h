// Keyed state files: the warm-state cache and mid-run checkpoints, and the
// one observer that decides when a run's state is saved.
//
// A state file is the complete simulator state at one cycle, stamped with
// the state-layout version and a scenario key (snapshot/scenario_key.h).
// Two kinds share one store and one validated restore:
//
//   * warm entries — the state at the end of a scenario's warm-up, named
//     by its warm key inside a cache directory. Every campaign cell and
//     every saturation probe with the same warm key restores it instead of
//     re-simulating the warm-up. Restores are exact-key only: a near-miss
//     (different rate, seed, scheme knob) reruns the warm-up and stores
//     its own entry.
//   * checkpoints — the state of one specific run, named by its full key
//     inside a checkpoint directory and refreshed every N cycles. An
//     interrupted run resumes from its last checkpoint instead of from
//     cycle zero; the completed run deletes it.
//
// The determinism invariant makes both safe: a restored run finishes with
// results byte-identical to the uninterrupted one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
#include "sim/simulator.h"

namespace rair {
struct ScenarioSpec;
}

namespace rair::snapshot {

/// Process-wide warm-cache accounting, for tests and for reporting how
/// much warm-up work the cache eliminated. Concurrent runs (campaign jobs,
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

/// File a given warm key lives at inside the cache directory `dir`.
std::string warmSnapshotPath(const std::string& dir, std::uint64_t warmKey);

/// Canonical checkpoint file name for a run key (placed inside the
/// checkpoint directory). Shared by runScenario and the continuation
/// tests so both agree where a run's checkpoint lives.
std::string checkpointFileName(std::uint64_t fullKey);

/// Writes the simulator's current state to `path` (atomically) under
/// `key`; false on I/O failure.
bool storeState(const Simulator& sim, const std::string& path,
                std::uint64_t key);

/// Restores `sim` from `path` when the file exists, passes its hash, has
/// the current state version and belongs to `key`; returns the restored
/// cycle, or nullopt (sim untouched) otherwise.
std::optional<Cycle> restoreState(Simulator& sim, const std::string& path,
                                  std::uint64_t key);

/// The snapshot side of one runScenario run. Constructed on the freshly
/// assembled simulator, before any other observer attaches, it restores
/// what the spec's SnapshotOptions make available: the run's checkpoint,
/// else its warm entry. Attached as a begin-of-cycle observer, it then
/// saves the warm entry when the warm-up ends (on a warm miss) and the
/// checkpoint every `checkpointEvery` cycles. Runs whose metrics level
/// writes sinks (summary/series) neither restore nor save: the recorder
/// accumulates outside the simulator's state.
class RunSnapshots final : public SimObserver {
 public:
  RunSnapshots(const ScenarioSpec& spec, Simulator& sim);

  void onCycleBegin(Cycle now) override;

  /// Whether any save is still due; runScenario attaches the observer
  /// only then.
  bool savesDue() const { return warmAt_ != kNeverCycle || every_ != 0; }
  /// The run completed: deletes its checkpoint.
  void finish() const;

  /// Cycle the run resumed from via its checkpoint (0 = from scratch).
  Cycle resumedFrom() const { return resumedFrom_; }
  /// Whether the warm-up state came from the warm cache.
  bool warmRestored() const { return warmRestored_; }

 private:
  const Simulator* sim_;
  Cycle warmAt_ = kNeverCycle;
  std::string warmPath_;
  std::uint64_t warmKey_ = 0;
  Cycle every_ = 0;
  std::string checkpointPath_;
  std::uint64_t fullKey_ = 0;
  Cycle resumedFrom_ = 0;
  bool warmRestored_ = false;
};

}  // namespace rair::snapshot

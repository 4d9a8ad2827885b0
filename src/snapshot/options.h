// Per-scenario snapshot configuration carried on ScenarioSpec.
#pragma once

#include <string>

#include "common/types.h"

namespace rair::snapshot {

/// What snapshotting, if any, a scenario run should do. Default-constructed
/// means "none": no snapshot observer is attached at all.
struct SnapshotOptions {
  /// Directory of the warm-state cache. When set, a run tries to restore
  /// the end-of-warm-up state for the scenario's warm key and, on a miss,
  /// stores it after simulating the warm-up once (snapshot/state_file.h).
  std::string warmCacheDir;

  /// Directory of mid-run checkpoints. When set, a run keeps its
  /// checkpoint at `<checkpointDir>/<checkpointFileName(fullStateKey)>`
  /// (creating the directory): it restores from that file if it exists,
  /// refreshes it every `checkpointEvery` cycles while running, and
  /// removes it when the run completes. Every scenario gets a distinct
  /// file without the caller computing keys.
  std::string checkpointDir;
  Cycle checkpointEvery = 25'000;

  bool enabled() const {
    return !warmCacheDir.empty() || !checkpointDir.empty();
  }
};

}  // namespace rair::snapshot

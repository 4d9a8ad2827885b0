// Canonical scenario keys: which snapshots may be restored where.
//
// A snapshot is only valid for the exact simulation it was taken from, so
// every snapshot file records a 64-bit key hashed from the state-affecting
// fields of the ScenarioSpec. Two key flavors:
//
//   * warmStateKey — everything that shapes the simulation up to the end
//     of the warm-up window (mesh, regions, effective config, scheme,
//     traffic, seed, warm-up length). Campaign cells and calibration runs
//     that share this key share identical end-of-warm-up state, which is
//     what the warm-state cache exploits.
//   * fullStateKey — warm key plus the measurement/drain windows; the
//     identity a mid-run checkpoint must match to resume a specific cell.
//
// Keys are computed by encoding the fields with the snapshot Writer (fixed
// widths, fixed order) and hashing the bytes, so they are stable across
// processes and platforms. Cosmetic fields (scheme label, metrics sinks)
// are deliberately excluded.
#pragma once

#include <cstdint>

#include "sim/scenario.h"

namespace rair::snapshot {

/// Version of the *state layout* (the meaning of section bodies written by
/// the save() hooks). Bump whenever serialized state changes shape; loads
/// refuse snapshots from other versions.
inline constexpr std::uint32_t kStateVersion = 5;

/// Key over the state-affecting spec prefix up to the end of warm-up.
std::uint64_t warmStateKey(const ScenarioSpec& spec);

/// warmStateKey plus measurement and drain windows — the identity of one
/// specific full run.
std::uint64_t fullStateKey(const ScenarioSpec& spec);

}  // namespace rair::snapshot

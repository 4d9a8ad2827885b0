// Determinism debugging: find the first cycle at which a restored-from-
// snapshot run diverges from the uninterrupted run of the same scenario.
// The subsystem's load-bearing invariant is that it never does — this is
// the tool that localizes a violation to a cycle and a state section when
// a save/restore hook goes stale (e.g. a new piece of mutable router state
// not added to the codec). The two runs step in lockstep and their states
// are compared after every cycle, so a difference that heals before the
// horizon is still reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace rair::snapshot {

struct BisectResult {
  bool diverged = false;
  /// First cycle whose post-cycle state differs (meaningful only when
  /// `diverged`).
  Cycle firstDivergentCycle = 0;
  /// Name of the first snapshot section that differs at that cycle.
  std::string section;
};

/// First section (in write order) whose body differs between two
/// hash-validated payloads. Empty string when byte-identical; "<framing>"
/// when the section lists themselves disagree.
std::string firstDifferingSection(const std::vector<std::uint8_t>& a,
                                  const std::vector<std::uint8_t>& b);

/// Steps `straight` and `restored` (both begun, at the same cycle) in
/// lockstep up to `horizon`, comparing their save() bytes before the first
/// step and after every cycle. Returns at the first cycle whose states
/// differ, leaving both simulators there.
BisectResult firstDivergence(Simulator& straight, Simulator& restored,
                             Cycle horizon);

/// Runs `spec` straight to `snapAt` and saves its state, restores that
/// state into a fresh simulator, and reports the first cycle in
/// [snapAt, horizon] where the continued straight run and the restored run
/// differ (firstDivergence). RAIR_CHECKs when the spec is not
/// snapshot-capable.
BisectResult bisectDivergence(const ScenarioSpec& spec, Cycle snapAt,
                              Cycle horizon);

/// Cross-engine variant: the snapshot and the straight reference run use
/// `saveSpec`, the restored continuation uses `restoreSpec`. The two specs
/// must describe the same scenario and may differ only in execution knobs
/// that do not enter the scenario key (in practice: withThreads) — the
/// tool that localizes a thread-count-dependent divergence to a cycle and
/// a state section, proving checkpoints are thread-count-agnostic.
BisectResult bisectDivergence(const ScenarioSpec& saveSpec,
                              const ScenarioSpec& restoreSpec, Cycle snapAt,
                              Cycle horizon);

}  // namespace rair::snapshot

// Seeded random fault-plan generation, shared by the fuzz harness and the
// campaign fault-density axis.
//
// Two sampling modes, selected by `mtbf`:
//
//   - Budget mode (mtbf == 0): the fuzzer's family — a small fixed-range
//     budget per fault kind (1-3 outages or 1-4 corruption bursts, 0-2
//     stalls, 0-1 freezes, 0-2 credit losses), sized for the tiny meshes
//     property tests drain to quiescence. About 1 in 4 of its outages
//     never restores, possibly partitioning the mesh; the drain then runs
//     unreachable traffic through the accounted drop bucket.
//   - MTBF mode (mtbf > 0): one event expected every `mtbf` cycles across
//     the window, kinds drawn uniformly from the active family — the
//     campaign's fault-density axis, where a density multiplier scales
//     mtbf inversely.
//
// The active family follows the link layer: ideal-layer plans use link
// outages (recovery is rerouting), retx-layer plans use corruption bursts
// (recovery is retransmission). Both families add port stalls, injection
// freezes, credit losses and router soft resets, always bounded so the
// plan stays liveness-safe: every stall/freeze is released, credit loss
// never touches escape VCs, MTBF-mode outages always restore (a permanent
// partition would dominate the measurement window), and soft resets are
// always recovered and never overlap in time (at most one node is in
// reset at any instant).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "fault/plan.h"

namespace rair::fault {

struct RandomPlanOptions {
  int meshW = 8;
  int meshH = 8;
  /// VC layout, for credit-loss targeting (adaptive VCs only — losses
  /// are skipped entirely when vcsPerClass < 2 leaves no adaptive VC).
  int numClasses = 1;
  int vcsPerClass = 3;
  /// Event cycles are drawn uniformly from [windowBegin, windowEnd].
  Cycle windowBegin = 1;
  Cycle windowEnd = 600;
  /// Retx link layer: corruption bursts replace link outages.
  bool retxLayer = false;
  /// 0 = budget mode; > 0 = MTBF mode (see header comment).
  Cycle mtbf = 0;
};

/// Expands `seed` into a plan, bit-reproducibly: same (seed, opts), same
/// plan. Callers derive the seed; this function does not mix it further.
FaultPlan generateRandomPlan(std::uint64_t seed,
                             const RandomPlanOptions& opts);

}  // namespace rair::fault

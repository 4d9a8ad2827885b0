#include "fault/random_plan.h"

#include <algorithm>

#include "common/assert.h"
#include "common/rng.h"
#include "topology/mesh.h"

namespace rair::fault {

namespace {

/// Draw state shared by both sampling modes. Every helper draws a fixed
/// number of RNG values in a fixed order — the plan is a pure function of
/// (seed, opts).
struct Sampler {
  Xoshiro256StarStar rng;
  Mesh mesh;
  const RandomPlanOptions& opts;

  Sampler(std::uint64_t seed, const RandomPlanOptions& o)
      : rng(seed), mesh(o.meshW, o.meshH), opts(o) {}

  Cycle cycle() {
    return opts.windowBegin +
           rng.below(opts.windowEnd - opts.windowBegin + 1);
  }
  Cycle duration(Cycle lo, Cycle hi) { return lo + rng.below(hi - lo + 1); }
  NodeId node() {
    return static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(mesh.numNodes())));
  }
  void link(NodeId* n, Dir* d) {
    while (true) {
      *n = node();
      *d = static_cast<Dir>(1 + rng.below(4));
      if (mesh.neighbor(*n, *d)) return;
    }
  }
  /// Adaptive-VC index (never an escape VC), or -1 when the layout has
  /// no adaptive VCs to target.
  int adaptiveVc() {
    if (opts.vcsPerClass < 2) return -1;
    const int cls = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(opts.numClasses)));
    return cls * opts.vcsPerClass + 1 +
           static_cast<int>(rng.below(
               static_cast<std::uint64_t>(opts.vcsPerClass - 1)));
  }
};

void addCorruptBurst(FaultPlan& plan, Sampler& s) {
  NodeId node;
  Dir dir;
  s.link(&node, &dir);
  const Cycle at = s.cycle();
  plan.corruptFlits(at, node, dir, static_cast<int>(1 + s.rng.below(6)));
}

void addOutage(FaultPlan& plan, Sampler& s, bool mayBePermanent) {
  NodeId node;
  Dir dir;
  s.link(&node, &dir);
  const Cycle at = s.cycle();
  // ~1 in 4 outages never restores; a permanent outage may partition the
  // mesh, so callers that must drain route unreachable traffic through
  // the accounted drop bucket.
  const bool permanent = s.rng.chance(0.25) && mayBePermanent;
  if (permanent)
    plan.add({at, FaultKind::LinkDown, node, dir, 0, 1});
  else
    plan.linkOutage(at, node, dir, s.duration(20, 300));
}

void addStall(FaultPlan& plan, Sampler& s) {
  NodeId node;
  Dir dir;
  s.link(&node, &dir);
  const Cycle at = s.cycle();
  plan.portStall(at, node, dir, s.duration(10, 200));
}

void addFreeze(FaultPlan& plan, Sampler& s) {
  const NodeId node = s.node();
  const Cycle at = s.cycle();
  plan.injectFreeze(at, node, s.duration(10, 200));
}

void addCreditLoss(FaultPlan& plan, Sampler& s) {
  NodeId node;
  Dir dir;
  s.link(&node, &dir);
  const int vc = s.adaptiveVc();
  if (vc < 0) return;
  plan.creditLoss(s.cycle(), node, dir, vc, 1);
}

/// Router soft resets, drawn after every other kind so existing seeds
/// keep their exact event prefix. Always recovered after a bounded
/// duration and serialized so at most one node is in reset at any time —
/// overlapping resets could strand committed traffic between two down
/// routers with no live escape, and nested resets of one node are
/// rejected by the injector. A shifted start may land past windowEnd;
/// the recover still applies because stalled traffic keeps the drain
/// loop cycling until it fires.
void addResets(FaultPlan& plan, Sampler& s, int count) {
  Cycle lastEnd = 0;
  for (int i = 0; i < count; ++i) {
    const NodeId node = s.node();
    Cycle at = s.cycle();
    const Cycle duration = s.duration(10, 120);
    if (at <= lastEnd) at = lastEnd + 1;
    plan.softReset(at, node, duration);
    lastEnd = at + duration;
  }
}

/// The fuzzer's family: a small fixed-range budget per kind.
void sampleBudget(FaultPlan& plan, Sampler& s) {
  if (s.opts.retxLayer) {
    // 1-4 corruption bursts of 1-6 flits. Every corrupt flit is NAK'd and
    // retransmitted, so bursts are liveness-safe at any cycle — including
    // past the injection cutoff, where they hit the draining tail.
    const int bursts = static_cast<int>(1 + s.rng.below(4));
    for (int i = 0; i < bursts; ++i) addCorruptBurst(plan, s);
  } else {
    const int outages = static_cast<int>(1 + s.rng.below(3));
    for (int i = 0; i < outages; ++i)
      addOutage(plan, s, /*mayBePermanent=*/true);
  }
  // 0-2 port stalls and 0-1 injection freezes, always released: a
  // permanent stall would turn drain-to-quiescence into a false failure.
  const int stalls = static_cast<int>(s.rng.below(3));
  for (int i = 0; i < stalls; ++i) addStall(plan, s);
  if (s.rng.chance(0.5)) addFreeze(plan, s);
  // 0-2 single-credit losses, adaptive VCs only: destroying escape
  // credits would void Duato's liveness argument, and the resulting stuck
  // packet is a watchdog report about the plan, not about the network.
  const int losses = static_cast<int>(s.rng.below(3));
  for (int i = 0; i < losses; ++i) addCreditLoss(plan, s);
  // 0-2 router soft resets (both layers; on retx the neighbors' replay
  // buffers redeliver after recovery, on ideal a reset is a node outage).
  addResets(plan, s, static_cast<int>(s.rng.below(3)));
}

/// The campaign's density family: one event expected every `mtbf` cycles,
/// kind drawn uniformly. All events are transient (no permanent outages),
/// so the measurement window degrades but always recovers.
void sampleMtbf(FaultPlan& plan, Sampler& s) {
  const Cycle span = s.opts.windowEnd - s.opts.windowBegin + 1;
  const int events = std::max<int>(
      1, static_cast<int>((span + s.opts.mtbf / 2) / s.opts.mtbf));
  for (int i = 0; i < events; ++i) {
    switch (s.rng.below(4)) {
      case 0:
        if (s.opts.retxLayer)
          addCorruptBurst(plan, s);
        else
          addOutage(plan, s, /*mayBePermanent=*/false);
        break;
      case 1:
        addStall(plan, s);
        break;
      case 2:
        addFreeze(plan, s);
        break;
      default:
        addCreditLoss(plan, s);
        break;
    }
  }
  // Soft resets ride on top of the uniform draw (appending keeps the
  // RNG prefix, so existing seeds keep their exact event sequence),
  // roughly one per eight MTBF events.
  addResets(plan, s, 1 + events / 8);
}

}  // namespace

FaultPlan generateRandomPlan(std::uint64_t seed,
                             const RandomPlanOptions& opts) {
  RAIR_CHECK(opts.windowEnd >= opts.windowBegin);
  Sampler s(seed, opts);
  FaultPlan plan;
  if (opts.mtbf == 0)
    sampleBudget(plan, s);
  else
    sampleMtbf(plan, s);
  return plan;
}

}  // namespace rair::fault

#include "snapshot/scenario_key.h"

#include "common/assert.h"
#include "snapshot/buffer.h"

namespace rair::snapshot {

namespace {

/// Encodes every field that shapes the simulation through the end of the
/// warm-up window. Field order and widths are part of the key definition —
/// reordering or widening silently invalidates every cached snapshot, so
/// only append.
void encodeWarmPrefix(Writer& w, const ScenarioSpec& spec) {
  // PARSEC, trace and source-gated workloads are not encoded: the
  // request/reply hook and the replay and gate sources make them
  // snapshot-ineligible, so they must never reach a key.
  RAIR_CHECK(spec.parsecApps.empty() && spec.trace.empty() &&
             spec.sourceCutoff == kNeverCycle);
  w.u32(kStateVersion);

  // Topology and application placement.
  w.i32(spec.mesh->width());
  w.i32(spec.mesh->height());
  const int numNodes = spec.mesh->numNodes();
  w.i32(numNodes);
  for (NodeId n = 0; n < numNodes; ++n)
    w.u16(static_cast<std::uint16_t>(spec.regions->appOf(n)));

  // Effective network/sim config, after runScenario's normalization
  // (routing and rairPartition come from the scheme, not the raw config).
  const NetworkConfig& net = spec.config.net;
  w.i32(net.numClasses);
  w.i32(net.vcsPerClass);
  w.boolean(spec.scheme.needsRairPartition());
  w.i32(net.globalVcsPerClass);
  w.i32(net.vcDepth);
  w.boolean(net.atomicVcs);
  w.u64(net.linkLatency);
  w.u8(static_cast<std::uint8_t>(spec.scheme.routing));
  w.u64(spec.config.warmupCycles);
  w.u64(spec.config.progressTimeout);

  // Scheme behaviour (label is cosmetic and excluded).
  w.u8(static_cast<std::uint8_t>(spec.scheme.policy));
  w.u8(static_cast<std::uint8_t>(spec.scheme.rair.dpaMode));
  w.boolean(spec.scheme.rair.applyAtVa);
  w.boolean(spec.scheme.rair.applyAtSa);
  w.f64(spec.scheme.rair.hysteresisDelta);
  w.u64(spec.scheme.stcBatchPeriod);

  // Traffic.
  w.u32(static_cast<std::uint32_t>(spec.apps.size()));
  for (const AppTrafficSpec& a : spec.apps) {
    w.u16(static_cast<std::uint16_t>(a.app));
    w.f64(a.injectionRate);
    w.f64(a.intraFraction);
    w.f64(a.interFraction);
    w.f64(a.mcFraction);
    w.u8(static_cast<std::uint8_t>(a.interPattern));
    w.u16(static_cast<std::uint16_t>(a.interTargetApp));
    w.u8(static_cast<std::uint8_t>(a.msgClass));
  }
  w.f64(spec.adversarialRate);
  w.u64(spec.seed);

  // Fault plan (state version 2): events can fire during warm-up, so two
  // specs share warm state only when their full plans match.
  spec.faults.encode(w);

  // Link layer (appended): a retx-linked network carries replay/sequence
  // state an ideal-linked one does not, so the two never share snapshots.
  w.u8(static_cast<std::uint8_t>(net.linkLayer));
}

}  // namespace

std::uint64_t warmStateKey(const ScenarioSpec& spec) {
  Writer w;
  encodeWarmPrefix(w, spec);
  const auto& bytes = w.payload();
  return fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t fullStateKey(const ScenarioSpec& spec) {
  Writer w;
  encodeWarmPrefix(w, spec);
  w.u64(spec.config.measureCycles);
  w.u64(spec.config.drainLimit);
  const auto& bytes = w.payload();
  return fnv1a64(bytes.data(), bytes.size());
}

}  // namespace rair::snapshot

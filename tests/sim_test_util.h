// Shared helpers for simulator-level tests.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "snapshot/buffer.h"
#include "snapshot/scenario_key.h"
#include "snapshot/state_file.h"
#include "traffic/source.h"

namespace rair::testutil {

/// Injects a fixed list of (cycle, packet) events.
class ScriptedSource final : public TrafficSource {
 public:
  struct Event {
    Cycle when;
    NodeId src, dst;
    AppId app = 0;
    std::uint16_t flits = 1;
    MsgClass cls = MsgClass::Request;
  };

  explicit ScriptedSource(std::vector<Event> events)
      : events_(std::move(events)) {}

  void tick(InjectionSink& sink) override {
    for (const auto& e : events_) {
      if (e.when == sink.now())
        sink.createPacket(e.src, e.dst, e.app, e.cls, e.flits);
    }
  }
  // Stateless: what it injects depends on the clock alone.
  void saveState(snapshot::Writer&) const override {}
  void restoreState(snapshot::Reader&) override {}

 private:
  std::vector<Event> events_;
};

/// The unfused reference schedule of one clock edge: phase A as
/// whole-network passes (every NIC tick, then each router stage over all
/// routers), then phase B over every node and the congestion-history
/// advance. The sharded engine fuses phase A per node and must stay
/// byte-identical to this order. NIC events go straight to each NIC's
/// receiver. Returns the flits the switches moved in cycle `now`.
inline int referenceStep(Network& net, Cycle now) {
  const NodeId numNodes = net.mesh().numNodes();
  for (NodeId n = 0; n < numNodes; ++n) net.nic(n).tick(now);
  for (NodeId n = 0; n < numNodes; ++n) net.router(n).beginCycle(now);
  for (NodeId n = 0; n < numNodes; ++n) net.router(n).routeCompute(now);
  for (NodeId n = 0; n < numNodes; ++n) net.router(n).vcAllocate(now);
  const int moved = net.phaseTraversePropagate(now, 0, numNodes);
  net.advanceCongestionHistory();
  return moved;
}

/// The bytes `sim` saves.
inline std::vector<std::uint8_t> savedBytes(const Simulator& sim) {
  snapshot::Writer w;
  sim.save(w);
  return w.payload();
}

/// Restores `bytes` into a fresh assembly of `spec` and saves it again:
/// equal to `bytes` when the snapshot carries every piece of state its
/// sources and hooks hold.
inline std::vector<std::uint8_t> resavedBytes(
    const ScenarioSpec& spec, const std::vector<std::uint8_t>& bytes) {
  AssembledScenario as = assembleScenario(spec);
  snapshot::Reader r(bytes);
  as.sim->restore(r);
  return savedBytes(*as.sim);
}

/// A SimConfig with short windows suitable for unit tests.
inline SimConfig fastConfig() {
  SimConfig cfg;
  cfg.warmupCycles = 0;
  cfg.measureCycles = 2'000;
  cfg.drainLimit = 50'000;
  cfg.progressTimeout = 20'000;
  return cfg;
}

/// `spec` keeping its mid-run checkpoint in directory `dir`, the one way
/// runScenario names a checkpoint (the campaign's --checkpoint-dir).
inline ScenarioSpec checkpointingIn(ScenarioSpec spec, const std::string& dir) {
  snapshot::SnapshotOptions snap;
  snap.checkpointDir = dir;
  return spec.withSnapshot(snap);
}

/// The file runScenario resumes `spec` from under checkpointingIn(spec,
/// dir), for tests that fabricate the interrupted run; creates `dir`.
inline std::string checkpointPath(const std::string& dir,
                                  const ScenarioSpec& spec) {
  snapshot::ensureDir(dir);
  return dir + "/" +
         snapshot::checkpointFileName(snapshot::fullStateKey(spec));
}

}  // namespace rair::testutil

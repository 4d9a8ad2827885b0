// Shared helpers for simulator-level tests.
#pragma once

#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
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

 private:
  std::vector<Event> events_;
};

/// The unfused reference schedule of one clock edge: phase A as
/// whole-network passes (every NIC tick, then each router stage over all
/// routers), then the congestion retire and phase B over every node. The
/// sharded engine fuses phase A per node and must stay byte-identical to
/// this order. NIC events go straight to each NIC's receiver. Returns the
/// flits moved.
inline int referenceStep(Network& net, Cycle now) {
  const NodeId numNodes = net.mesh().numNodes();
  for (NodeId n = 0; n < numNodes; ++n) net.nic(n).tick(now);
  for (NodeId n = 0; n < numNodes; ++n) net.router(n).beginCycle(now);
  for (NodeId n = 0; n < numNodes; ++n) net.router(n).routeCompute(now);
  for (NodeId n = 0; n < numNodes; ++n) net.router(n).vcAllocate(now);
  net.phaseRetireCongestion();
  return net.phaseTraversePropagate(now, 0, numNodes);
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

}  // namespace rair::testutil

// Traffic-source abstraction: anything that creates packets, from
// synthetic Bernoulli generators to trace replay.
#pragma once

#include "common/types.h"
#include "packet/packet.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

/// Where sources hand their packets. Implemented by the Simulator: it
/// assigns ids, records creation stats and enqueues at the source NIC.
class InjectionSink {
 public:
  virtual ~InjectionSink() = default;

  /// Creates a packet at cycle now(); returns its id.
  virtual PacketId createPacket(NodeId src, NodeId dst, AppId app,
                                MsgClass cls, std::uint16_t numFlits) = 0;

  /// Current simulation cycle.
  virtual Cycle now() const = 0;
};

/// A packet generator, ticked once per cycle while injection is enabled.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// May call sink.createPacket() any number of times.
  virtual void tick(InjectionSink& sink) = 0;

  /// Serialize/deserialize the source's mutable state (an RNG stream, a
  /// replay cursor, or nothing). Every source is part of the simulator's
  /// snapshot, so every source says what it holds.
  virtual void saveState(snapshot::Writer& w) const = 0;
  virtual void restoreState(snapshot::Reader& r) = 0;
};

}  // namespace rair

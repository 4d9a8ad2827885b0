// The cycle engine against the unfused reference schedule: a 1-shard
// ShardEngine and testutil::referenceStep drive two identically built
// networks in lockstep on random traffic. After every cycle the moved-flit
// count, the NIC event sequence and the Network::save() bytes must match,
// which pins the engine's per-node fusion of phase A (NIC tick, then the
// router's beginCycle / routeCompute / vcAllocate) to the whole-network
// pass order, on both link layers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/scheme.h"
#include "sim/shard.h"
#include "sim_test_util.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

/// Records every NIC lifecycle event in arrival order.
struct EventLog final : NicEvents {
  struct Event {
    PacketId id;
    Cycle when;
    std::uint16_t hops;
    bool delivered;
    bool operator==(const Event&) const = default;
  };
  void onInjected(PacketId id, Cycle when) override {
    events.push_back({id, when, 0, false});
  }
  void onDelivered(PacketId id, Cycle when, std::uint16_t hops) override {
    events.push_back({id, when, hops, true});
  }
  std::vector<Event> events;
};

std::vector<std::uint8_t> bytesOf(const Network& net) {
  snapshot::Writer w;
  net.save(w);
  return w.payload();
}

/// One network plus the policy it arbitrates with.
struct Side {
  Side(const Mesh& mesh, const RegionMap& regions, const SchemeSpec& scheme,
       const NetworkConfig& config)
      : policy(makePolicy(scheme, std::vector<double>(
                                      static_cast<std::size_t>(
                                          regions.numApps()),
                                      0.1))),
        net(mesh, regions, config, scheme.routing, *policy) {}
  std::unique_ptr<ArbiterPolicy> policy;
  Network net;
  EventLog log;
};

struct LockstepCase {
  std::string name;
  SchemeSpec scheme;
  LinkLayerKind link;
  std::uint64_t seed;
};

class EngineReference : public ::testing::TestWithParam<LockstepCase> {};

TEST_P(EngineReference, OneShardEngineMatchesUnfusedScheduleEveryCycle) {
  const LockstepCase& c = GetParam();
  constexpr Cycle kTrafficCycles = 1'500;
  constexpr Cycle kCycles = 2'500;
  Mesh mesh(6, 6);
  const RegionMap regions = RegionMap::quadrants(mesh);
  NetworkConfig config;
  config.numClasses = 2;
  config.vcsPerClass = 4;
  config.rairPartition = c.scheme.needsRairPartition();
  config.linkLayer = c.link;

  Side ref(mesh, regions, c.scheme, config);
  Side eng(mesh, regions, c.scheme, config);
  for (NodeId n = 0; n < mesh.numNodes(); ++n)
    ref.net.nic(n).setEvents(&ref.log);
  ShardEngine engine(eng.net, eng.log, 1);

  Xoshiro256StarStar rng(c.seed);
  PacketId nextId = 1;
  std::uint64_t delivered = 0;
  for (Cycle now = 0; now < kCycles; ++now) {
    if (now < kTrafficCycles) {
      for (NodeId src = 0; src < mesh.numNodes(); ++src) {
        if (!rng.chance(0.08)) continue;
        Packet p;
        p.id = nextId++;
        p.src = src;
        do {
          p.dst = static_cast<NodeId>(
              rng.below(static_cast<std::uint64_t>(mesh.numNodes())));
        } while (p.dst == src);
        p.app = regions.appOf(src);
        p.msgClass = rng.chance(0.5) ? MsgClass::Request : MsgClass::Reply;
        p.numFlits = rng.chance(0.5) ? 1 : 5;
        p.createCycle = now;
        ref.net.nic(src).enqueue(p);
        eng.net.nic(src).enqueue(p);
      }
      // Retx links: occasional corruption bursts force NAKs and replays.
      if (c.link == LinkLayerKind::Retx && rng.chance(0.01)) {
        const auto link = static_cast<std::size_t>(
            rng.below(ref.net.links().size()));
        const int count = 1 + static_cast<int>(rng.below(3));
        ref.net.links()[link]->corruptNext(count);
        eng.net.links()[link]->corruptNext(count);
      }
    }
    const int movedRef = testutil::referenceStep(ref.net, now);
    const int movedEng = engine.step(now);
    ASSERT_EQ(movedRef, movedEng) << "cycle " << now;
    ASSERT_TRUE(ref.log.events == eng.log.events) << "cycle " << now;
    ASSERT_TRUE(bytesOf(ref.net) == bytesOf(eng.net)) << "cycle " << now;
    for (const EventLog::Event& e : ref.log.events) delivered += e.delivered;
    ref.log.events.clear();
    eng.log.events.clear();
  }
  // The traffic must have loaded the network and then drained from it.
  EXPECT_GT(delivered, 2'000u);
  EXPECT_TRUE(ref.net.quiescent());
  EXPECT_TRUE(eng.net.quiescent());
  if (c.link == LinkLayerKind::Retx) {
    EXPECT_GT(eng.net.totalRetransmittedFlits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lockstep, EngineReference,
    ::testing::Values(
        LockstepCase{"RoRrIdeal", schemeRoRr(), LinkLayerKind::Ideal, 11},
        LockstepCase{"RaRairIdeal", schemeRaRair(), LinkLayerKind::Ideal, 12},
        LockstepCase{"RaDbarIdeal", schemeRaDbar(), LinkLayerKind::Ideal, 13},
        LockstepCase{"RoRrRetx", schemeRoRr(), LinkLayerKind::Retx, 14},
        LockstepCase{"RaRairRetx", schemeRaRair(), LinkLayerKind::Retx, 15},
        LockstepCase{"RaDbarRetx", schemeRaDbar(), LinkLayerKind::Retx, 16}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace rair

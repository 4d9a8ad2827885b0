// Direct unit tests of the Router: a single router instance wired to
// hand-held links, driven phase by phase — pinning down the precise
// arbitration and flow-control semantics the end-to-end tests rely on.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <optional>

#include "core/rair_policy.h"
#include "policy/policy.h"
#include "router/router.h"

namespace rair {
namespace {

/// Congestion stub: everything looks free.
class OpenCongestion final : public CongestionView {
 public:
  int freeVcsThrough(NodeId, Dir) const override { return 4; }
  int aggregatedFree(NodeId, Dir, int hops) const override {
    return 4 * hops;
  }
};

/// Harness around one router at the center of a 3x3 mesh (node 4), with
/// all five ports wired to links we hold the far ends of.
class RouterBench {
 public:
  RouterBench(const ArbiterPolicy& policy, RouterConfig config,
              AppId appTag = 0)
      : mesh_(3, 3),
        routing_(),
        router_(4, appTag, config, mesh_, routing_, policy, congestion_) {
    for (int p = 0; p < kNumPorts; ++p) {
      router_.connectIn(static_cast<Dir>(p), &in_[p]);
      router_.connectOut(static_cast<Dir>(p), &out_[p]);
    }
  }

  /// Run one full router cycle.
  void step() {
    router_.beginCycle(now_);
    router_.routeCompute(now_);
    router_.vcAllocate(now_);
    router_.switchAllocateAndTraverse(now_);
    router_.endCycle(now_);
    ++now_;
  }

  /// Sends a flit into input port `p`, VC `vc` (arrives next cycle).
  void inject(Dir p, int vc, const Flit& f) {
    in_[static_cast<int>(p)].sendFlit(now_, f, vc);
  }

  /// Drains every flit that left through port `p` this step.
  std::vector<FlitMsg> drainOutput(Dir p) {
    std::vector<FlitMsg> out;
    while (auto m = out_[static_cast<int>(p)].recvFlit(now_))
      out.push_back(*m);
    return out;
  }

  /// Returns one credit for output VC (p, vc); it arrives next cycle.
  void returnCredit(Dir p, int vc) {
    out_[static_cast<int>(p)].sendCredit(now_, vc);
  }

  /// Feeds credits back for everything that left through `p` (models an
  /// always-draining neighbor).
  void autoCredit(Dir p) {
    for (const auto& m : drainOutput(p))
      out_[static_cast<int>(p)].sendCredit(now_, m.vc);
  }

  Router& router() { return router_; }
  Cycle now() const { return now_; }

  /// Runs until a flit of packet `id` leaves through `p` (or cycles run
  /// out); returns the cycle it left, or kNeverCycle.
  Cycle runUntilOut(Dir p, PacketId id, int maxCycles = 50) {
    for (int i = 0; i < maxCycles; ++i) {
      step();
      for (const auto& m : drainOutput(p)) {
        out_[static_cast<int>(p)].sendCredit(now_ - 1, m.vc);
        if (m.flit.pkt == id) return now_ - 1;
      }
    }
    return kNeverCycle;
  }

 private:
  Mesh mesh_;
  LocalAdaptiveRouting routing_;
  OpenCongestion congestion_;
  IdealLink in_[kNumPorts]{IdealLink{1}, IdealLink{1}, IdealLink{1},
                           IdealLink{1}, IdealLink{1}};
  IdealLink out_[kNumPorts]{IdealLink{1}, IdealLink{1}, IdealLink{1},
                            IdealLink{1}, IdealLink{1}};
  Router router_;
  Cycle now_ = 0;
};

Flit headTail(PacketId id, NodeId dst, AppId app) {
  Flit f;
  f.pkt = id;
  f.src = 0;
  f.dst = dst;  // node 4 is the router; dst 5 = East neighbor on 3x3
  f.app = app;
  f.type = FlitType::HeadTail;
  f.pktFlits = 1;
  return f;
}

RouterConfig plainConfig() {
  RouterConfig c;
  c.layout = VcLayout(1, 5, false);
  return c;
}

TEST(RouterUnit, SingleFlitTraversesInFourCycles) {
  RoundRobinPolicy rr;
  RouterBench bench(rr, plainConfig());
  // dst = node 5 (east of center node 4).
  bench.inject(Dir::West, 1, headTail(1, 5, 0));
  // Inject at cycle 0 -> arrive 1 (BW), RC 2, VA 3, SA/ST 4.
  const Cycle left = bench.runUntilOut(Dir::East, 1);
  EXPECT_EQ(left, 4u);
}

TEST(RouterUnit, EjectsAtLocalPort) {
  RoundRobinPolicy rr;
  RouterBench bench(rr, plainConfig());
  bench.inject(Dir::North, 2, headTail(7, /*dst=*/4, 0));
  const Cycle left = bench.runUntilOut(Dir::Local, 7);
  EXPECT_NE(left, kNeverCycle);
}

TEST(RouterUnit, MultiFlitPacketStaysOnOneVc) {
  RoundRobinPolicy rr;
  RouterBench bench(rr, plainConfig());
  Flit h = headTail(3, 5, 0);
  h.type = FlitType::Head;
  h.pktFlits = 3;
  bench.inject(Dir::West, 1, h);
  bench.step();
  Flit b = h;
  b.type = FlitType::Body;
  b.seq = 1;
  bench.inject(Dir::West, 1, b);
  bench.step();
  Flit t = h;
  t.type = FlitType::Tail;
  t.seq = 2;
  bench.inject(Dir::West, 1, t);
  std::map<int, int> vcFlits;
  for (int i = 0; i < 20; ++i) {
    bench.step();
    for (const auto& m : bench.drainOutput(Dir::East)) ++vcFlits[m.vc];
    bench.autoCredit(Dir::East);
  }
  ASSERT_EQ(vcFlits.size(), 1u) << "packet split across output VCs";
  EXPECT_EQ(vcFlits.begin()->second, 3);
}

TEST(RouterUnit, BlocksWithoutCredits) {
  RoundRobinPolicy rr;
  RouterBench bench(rr, plainConfig());
  // Five packets, one per input VC; we never return credits downstream,
  // so each consumes one of the 5 output VCs (4 adaptive + escape).
  for (PacketId id = 1; id <= 5; ++id)
    bench.inject(Dir::West, static_cast<int>(id - 1), headTail(id, 5, 0));
  int flitsOut = 0;
  for (int i = 0; i < 30; ++i) {
    bench.step();
    flitsOut += static_cast<int>(bench.drainOutput(Dir::East).size());
  }
  EXPECT_EQ(flitsOut, 5);
  // A sixth packet now finds every output VC un-credited: it must wait.
  bench.inject(Dir::West, 0, headTail(6, 5, 0));
  for (int i = 0; i < 20; ++i) {
    bench.step();
    flitsOut += static_cast<int>(bench.drainOutput(Dir::East).size());
  }
  EXPECT_EQ(flitsOut, 5) << "packet advanced without downstream credits";
}

TEST(RouterUnit, RairVaOutPrefersForeignOnGlobalVc) {
  // Two head flits (one native, one foreign) arrive in the same cycle at
  // different input ports, both bound east. With RAIR, the foreign packet
  // must win the first grant on the global VC it prefers.
  RairPolicy rairPolicy;
  RouterConfig cfg;
  cfg.layout = VcLayout(1, 5, true);  // 1 escape + 2 regional + 2 global
  RouterBench bench(rairPolicy, cfg, /*appTag=*/0);
  bench.inject(Dir::West, 1, headTail(10, 5, /*app=*/0));   // native
  bench.inject(Dir::North, 1, headTail(20, 5, /*app=*/9));  // foreign
  // Both will be granted eventually (different VCs); check VC classes.
  std::map<PacketId, int> pktVc;
  for (int i = 0; i < 20; ++i) {
    bench.step();
    for (const auto& m : bench.drainOutput(Dir::East))
      pktVc[m.flit.pkt] = m.vc;
    bench.autoCredit(Dir::East);
  }
  ASSERT_EQ(pktVc.size(), 2u);
  // VC layout: 0 escape, 1-2 regional, 3-4 global.
  EXPECT_GE(pktVc[20], 3) << "foreign packet should claim a global VC";
  EXPECT_TRUE(pktVc[10] == 1 || pktVc[10] == 2)
      << "native packet should claim a regional VC";
}

TEST(RouterUnit, SaTieBreaksRoundRobinAcrossPorts) {
  // Load two input ports with long packets bound for the same output;
  // with round-robin tie-break the switch interleaves the two ports
  // fairly rather than letting one port run.
  RoundRobinPolicy rr;
  RouterConfig cfg = plainConfig();
  cfg.vcDepth = 12;  // hold a 10-flit packet per VC
  RouterBench bench(rr, cfg);
  auto longPacket = [&](PacketId id, Dir port, int vc) {
    for (std::uint16_t i = 0; i < 10; ++i) {
      Flit f = headTail(id, 5, 0);
      f.pktFlits = 10;
      f.seq = i;
      f.type = i == 0 ? FlitType::Head
                      : (i == 9 ? FlitType::Tail : FlitType::Body);
      bench.inject(port, vc, f);
      bench.step();
      bench.autoCredit(Dir::East);
    }
  };
  // Interleave the injection of one packet per port (flits alternate).
  for (std::uint16_t i = 0; i < 10; ++i) {
    Flit w = headTail(1, 5, 0);
    w.pktFlits = 10;
    w.seq = i;
    w.type = i == 0 ? FlitType::Head
                    : (i == 9 ? FlitType::Tail : FlitType::Body);
    bench.inject(Dir::West, 1, w);
    Flit n = headTail(2, 5, 0);
    n.pktFlits = 10;
    n.seq = i;
    n.type = w.type;
    bench.inject(Dir::North, 1, n);
    bench.step();
    bench.autoCredit(Dir::East);
  }
  (void)longPacket;
  // Drain the rest and record the departure order.
  std::vector<PacketId> order;
  for (int i = 0; i < 60; ++i) {
    bench.step();
    for (const auto& m : bench.drainOutput(Dir::East))
      order.push_back(m.flit.pkt);
    bench.autoCredit(Dir::East);
  }
  // Wait: flits drained inside the injection loop too; recount by parity
  // is unnecessary — fairness shows as bounded run length in `order`.
  ASSERT_GE(order.size(), 10u);
  int maxRun = 1, run = 1;
  for (std::size_t i = 1; i < order.size(); ++i) {
    run = (order[i] == order[i - 1]) ? run + 1 : 1;
    maxRun = std::max(maxRun, run);
  }
  EXPECT_LE(maxRun, 3) << "one port monopolized the switch";
}

TEST(RouterUnit, CountersTrackGrants) {
  RoundRobinPolicy rr;
  RouterBench bench(rr, plainConfig(), /*appTag=*/0);
  bench.inject(Dir::West, 1, headTail(1, 5, 0));  // native
  bench.inject(Dir::North, 2, headTail(2, 5, 9)); // foreign
  for (int i = 0; i < 20; ++i) {
    bench.step();
    bench.autoCredit(Dir::East);
  }
  const auto& c = bench.router().counters();
  EXPECT_EQ(c.vaGrantsNative, 1u);
  EXPECT_EQ(c.vaGrantsForeign, 1u);
  EXPECT_EQ(c.saGrantsNative, 1u);
  EXPECT_EQ(c.saGrantsForeign, 1u);
  EXPECT_EQ(c.flitsTraversed, 2u);
}

// ---- VA fast reject --------------------------------------------------------
// VA skips the selection function when no candidate port has a free
// adaptive VC. The escape VC must still be granted, and a head that fits
// no VC must still wait.

/// Drops `n` credits of every adaptive output VC on port `p`.
void dropAdaptiveCredits(Router& r, const VcLayout& layout, Dir p, int n) {
  for (int vc = 0; vc < layout.totalVcs(); ++vc) {
    if (!layout.isAdaptive(vc)) continue;
    for (int i = 0; i < n; ++i) ASSERT_TRUE(r.debugDropCredit(p, vc));
  }
}

struct Departure {
  Dir port;
  int vc;
};

/// Steps until a flit of packet `id` leaves through one of `ports`.
std::optional<Departure> runUntilAnyOut(RouterBench& bench,
                                        std::initializer_list<Dir> ports,
                                        PacketId id, int maxCycles = 30) {
  for (int i = 0; i < maxCycles; ++i) {
    bench.step();
    for (const Dir p : ports)
      for (const auto& m : bench.drainOutput(p))
        if (m.flit.pkt == id) return Departure{p, m.vc};
  }
  return std::nullopt;
}

TEST(RouterUnit, FreeEscapeVcGrantedWhenAllAdaptiveVcsTaken) {
  RoundRobinPolicy rr;
  const RouterConfig cfg = plainConfig();
  RouterBench bench(rr, cfg);
  // Node 8 is diagonal from the center: two productive ports.
  const auto md = Mesh(3, 3).minimalDirs(4, 8);
  ASSERT_EQ(md.count, 2);
  for (const Dir d : md.dirs) {
    dropAdaptiveCredits(bench.router(), cfg.layout, d, 1);
    ASSERT_EQ(bench.router().freeAdaptiveOutVcs(d), 0);
  }
  bench.inject(Dir::West, 1, headTail(1, 8, 0));
  const auto left = runUntilAnyOut(bench, {md.dirs[0], md.dirs[1]}, 1);
  ASSERT_TRUE(left.has_value()) << "head never granted the free escape VC";
  EXPECT_EQ(left->port, md.dirs[0]) << "escape VC is on the XY direction";
  EXPECT_EQ(left->vc, 0);
}

TEST(RouterUnit, EjectingHeadGetsEscapeVcWhenLocalAdaptiveVcsTaken) {
  RoundRobinPolicy rr;
  const RouterConfig cfg = plainConfig();
  RouterBench bench(rr, cfg);
  dropAdaptiveCredits(bench.router(), cfg.layout, Dir::Local, 1);
  ASSERT_EQ(bench.router().freeAdaptiveOutVcs(Dir::Local), 0);
  bench.inject(Dir::North, 2, headTail(7, /*dst=*/4, 0));
  const auto left = runUntilAnyOut(bench, {Dir::Local}, 7);
  ASSERT_TRUE(left.has_value()) << "ejecting head never granted escape VC";
  EXPECT_EQ(left->vc, 0);
}

TEST(RouterUnit, NonAtomicVaRejectsVcsWithTooFewCreditsForThePacket) {
  // Non-atomic VCs count as free with a single credit, so the fast reject
  // does not fire here; the full scan must still refuse a 3-flit packet
  // every VC holding only 2 credits (escape: 4 of 5, not drained).
  RoundRobinPolicy rr;
  RouterConfig cfg = plainConfig();
  cfg.atomicVcs = false;
  RouterBench bench(rr, cfg);
  dropAdaptiveCredits(bench.router(), cfg.layout, Dir::East,
                      cfg.vcDepth - 2);
  ASSERT_TRUE(bench.router().debugDropCredit(Dir::East, 0));
  ASSERT_EQ(bench.router().freeAdaptiveOutVcs(Dir::East), 4);

  Flit h = headTail(3, 5, 0);
  h.type = FlitType::Head;
  h.pktFlits = 3;
  bench.inject(Dir::West, 1, h);
  EXPECT_FALSE(runUntilAnyOut(bench, {Dir::East}, 3, 20).has_value())
      << "packet granted a VC without room for all its flits";

  // One more credit on VC 2 makes exactly that VC fit the packet.
  bench.returnCredit(Dir::East, 2);
  const auto left = runUntilAnyOut(bench, {Dir::East}, 3);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(left->vc, 2);
}

TEST(RouterUnit, QuiescentAfterTraffic) {
  RoundRobinPolicy rr;
  RouterBench bench(rr, plainConfig());
  EXPECT_TRUE(bench.router().quiescent());
  bench.inject(Dir::West, 1, headTail(1, 5, 0));
  bench.step();  // flit still on the link
  bench.step();  // now buffered in the router
  EXPECT_FALSE(bench.router().quiescent());
  for (int i = 0; i < 20; ++i) {
    bench.step();
    bench.autoCredit(Dir::East);
  }
  EXPECT_TRUE(bench.router().quiescent());
}

}  // namespace
}  // namespace rair

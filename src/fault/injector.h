// FaultInjector: applies a FaultPlan to a running simulation.
//
// The injector is a SimObserver whose onCycleBegin applies every event
// scheduled at or before the current cycle — always inside the
// coordinator's serial observer window, so the same mutations happen at
// the same points under any shard-thread count. Event application is the
// only place simulation state is mutated out-of-band; the warm loop
// itself stays allocation-free and fault-unaware.
//
// Topology events (link down/up, router reset/recover) trigger the
// "reconfiguration flush":
//
//   1. rebuild the RoutingTables once (components, BFS distances and
//      spanning-tree escape routes, in full), however many topology
//      events the cycle carried;
//   2. doom the packets that cannot or must not continue:
//        a. any packet with a flit inside a dead link's flit pipe
//           (ideal layer only — on the retransmission layer in-flight
//           flits survive in the replay buffers and redeliver),
//        b. any packet whose input VC is committed (Active) toward a dead
//           output port (ideal layer only — on the retransmission layer
//           the committed stream stalls against exhausted credits and
//           resumes after recovery),
//        r. any packet buffered in or strung on a soft-reset router's
//           input VCs, ejecting ones included — the reset wipes the
//           router's VC state, so everything inside it dies with credit
//           refunds; on the ideal layer the NIC injection pipe of the
//           reset node dies too (node-outage semantics), while the
//           retransmission layer holds those flits for redelivery,
//        c. any live packet whose destination is unreachable from its
//           current location on the degraded graph,
//        d. any packet holding an escape output-VC allocation on a
//           non-Local port — pre-change escape commitments follow the old
//           spanning tree; flushing them means every escape->escape
//           dependency alive after the event follows the one new tree,
//           which is acyclic, so Duato's argument keeps holding across
//           reconfigurations (ejecting escape holders drain to the NIC
//           sink unconditionally and are spared);
//   3. purge every flit of every doomed packet from buffers, link pipes,
//      NIC streams and source queues, refunding each removed flit to the
//      upstream credit counter so the oracle's per-link credit equation
//      (credits + in flight + downstream buffer + deliberately-lost ==
//      depth) closes without any dead-link special case;
//   4. release doomed packets into the accounted droppedByFault bucket
//      (Simulator::faultDropPacket, ascending id order — the packet
//      pool's free list is order-dependent and snapshot-serialized);
//   5. reset every surviving WaitingVa input VC to Routing so its route
//      is recomputed against the new tables (counted as a reroute), and
//      rebuild the routers' incremental aggregates from scratch.
//
// Router soft resets (Reset/Recover events). A reset marks every incident
// channel dead in the routing tables (so routing and reachability treat
// the node as a one-node component) and runs the flush above. Under the
// retransmission link layer the reset node's receiving link ends are
// additionally marked down: arrivals fail the handshake, are counted as
// corrupted and keep a go-back staged, so the neighbors' replay buffers
// redeliver every surviving flit once the router recovers — a reset is
// lossy only for state *inside* the router. Under the ideal layer a reset
// behaves as a node outage. Recover revives each incident channel unless
// the neighbor is itself still in reset; a Recover for a node not in
// reset is a harmless no-op (the fuzz shrinker may strand one). New
// packets sourced at or destined to a node in reset are dropped at
// creation through the deliverable() gate.
//
// Levels and impulses. Each event either sets a *level* — a dead link, a
// stall bit, a freeze flag, a reset flag with its retx receiver-down
// flags — or delivers an *impulse*: destroyed credits, corrupted flits.
// Levels after the first k events are a pure function of the plan, so a
// snapshot's "fault" section holds only the event cursor, the lost-credit
// ledger and the run accounting; restore clears every level and replays
// the applied prefix through the same level function the live path uses.
//
// The oracle is told about out-of-band mutation through the FaultView
// interface (lastTopologyChange suppresses the one-state-per-cycle
// transition check on exactly the mutated cycle; lostCredits enters the
// credit equations). Everything else it checks keeps holding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "routing/tables.h"
#include "sim/simulator.h"

namespace rair::fault {

/// Whether `plan` can run on a network of this mesh and configuration:
/// "" when it can, else a message naming the first illegal event. The
/// injector RAIR_CHECKs it; tools call it first and exit 2 instead.
std::string checkPlan(const FaultPlan& plan, const Mesh& mesh,
                      const NetworkConfig& net);

/// Applies a FaultPlan to one Simulator. Construct, then attach(); the
/// injector must outlive the simulation run. With an empty plan attached
/// the run is byte-identical to one without an injector (golden-tested).
class FaultInjector final : public SimObserver,
                            public Simulator::FaultHook,
                            public FaultView {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers with the simulator: observer list, fault hook, degraded
  /// routing tables. Idempotent-free: call exactly once.
  void attach();
  /// Unregisters everything attach() registered (also run by the dtor).
  void detach();

  const FaultPlan& plan() const { return plan_; }
  const RoutingTables& degraded() const { return degraded_; }

  /// Degradation totals so far. Drop counts are read from the simulator's
  /// droppedByFault bucket (which also counts unreachable-at-creation
  /// drops the hook gate makes).
  FaultStats stats() const;

  // SimObserver:
  void onCycleBegin(Cycle now) override;

  // Simulator::FaultHook:
  bool deliverable(NodeId src, NodeId dst) const override {
    if (numInReset_ > 0 &&
        (inReset_[static_cast<std::size_t>(src)] ||
         inReset_[static_cast<std::size_t>(dst)]))
      return false;
    return !degraded_.active() || degraded_.reachable(src, dst);
  }
  bool snapshotRelevant() const override { return !plan_.empty(); }
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::Reader& r) override;

  // FaultView:
  Cycle lastTopologyChange() const override { return lastTopoChange_; }
  std::uint64_t lostCredits(NodeId node, int port, int vc) const override {
    return lost_[lostIndex(node, port, vc)];
  }

 private:
  /// Sets the level `e` leaves behind (dead links, stall bits, freeze,
  /// reset and receiver-down flags); true when the topology changed.
  /// Shared by the live path and restore's replay.
  bool applyLevel(const FaultEvent& e);
  /// The live-only effect of `e`: credit loss into lost_, corruptNext.
  void applyImpulse(const FaultEvent& e);
  /// The reconfiguration flush (steps 2-5 of the header comment).
  void applyTopologyChange(Cycle now);
  /// Marks/clears receiver-down on every link whose receiving end is
  /// inside `node` (router in-links + the NIC injection channel).
  /// Retransmission layer only.
  void setNodeReceiverDown(NodeId node, bool down);

  std::size_t lostIndex(NodeId node, int port, int vc) const;

  Simulator* sim_;
  Network* net_;
  FaultPlan plan_;
  RoutingTables degraded_;
  bool attached_ = false;

  std::size_t cursor_ = 0;  ///< first plan event not yet applied
  Cycle lastTopoChange_ = kNeverCycle;
  Cycle outageStart_ = kNeverCycle;  ///< first cycle of the current outage

  /// Credits deliberately destroyed, per (node, out port, vc) — the
  /// oracle adds these to its conservation equations.
  std::vector<std::uint64_t> lost_;

  /// Per-node soft-reset flags plus a population count guarding the
  /// deliverable() fast path.
  std::vector<std::uint8_t> inReset_;
  int numInReset_ = 0;

  // FaultStats pieces maintained here (drops live on the simulator;
  // applied events and soft resets are read off the plan prefix).
  std::uint64_t reroutes_ = 0;
  std::uint64_t unreachablePairs_ = 0;
  std::uint64_t degradedCycles_ = 0;
  std::uint64_t recoveryCycles_ = 0;
};

}  // namespace rair::fault

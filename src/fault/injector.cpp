#include "fault/injector.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "snapshot/codec.h"

namespace rair::fault {

std::string checkPlan(const FaultPlan& plan, const Mesh& mesh,
                      const NetworkConfig& net) {
  const bool retx = net.linkLayer == LinkLayerKind::Retx;
  const int totalVcs = net.numClasses * net.vcsPerClass;
  const auto illegal = [](const FaultEvent& e, const std::string& why) {
    return "event '" + formatFaultEvent(e) + "': " + why;
  };
  // The Reset event each node is currently in, replayed in application
  // order (events are sorted).
  std::vector<const FaultEvent*> inReset(
      static_cast<std::size_t>(mesh.numNodes()), nullptr);
  for (const FaultEvent& e : plan.events()) {
    if (!mesh.contains(e.node))
      return illegal(e, "node " + std::to_string(e.node) +
                            " is outside the " +
                            std::to_string(mesh.width()) + "x" +
                            std::to_string(mesh.height()) + " mesh");
    const bool outage =
        e.kind == FaultKind::LinkDown || e.kind == FaultKind::LinkUp;
    if ((outage || e.kind == FaultKind::CorruptFlit) &&
        !mesh.neighbor(e.node, e.dir).has_value())
      return illegal(e, "the link does not exist");
    // The reconfiguration flush purges link pipes; a retransmission
    // link's replay/sequence state has no purge semantics (a purged entry
    // would be "retransmitted" forever). The two fault families are
    // deliberately disjoint per link layer.
    if (outage && retx)
      return illegal(e, "link outages require the ideal link layer");
    if (e.kind == FaultKind::CorruptFlit && !retx)
      return illegal(e, "corrupt events require the retx link layer "
                        "(--link-layer retx)");
    if (e.kind == FaultKind::CreditLoss && (e.vc < 0 || e.vc >= totalVcs))
      return illegal(e, "VC " + std::to_string(e.vc) +
                            " is outside the layout's " +
                            std::to_string(totalVcs) + " VCs");
    // Soft resets may not nest. A stranded Recover is a no-op.
    const auto node = static_cast<std::size_t>(e.node);
    if (e.kind == FaultKind::Reset) {
      if (inReset[node] != nullptr)
        return illegal(e, "the node is already in reset");
      inReset[node] = &e;
    }
    if (e.kind == FaultKind::Recover) inReset[node] = nullptr;
  }
  // An unrecovered reset is allowed only on the ideal layer: on the retx
  // layer committed neighbors stall against the reset node forever, so
  // the plan would never drain.
  if (retx)
    for (const FaultEvent* e : inReset)
      if (e != nullptr)
        return illegal(*e, "retx-layer soft resets must recover before "
                           "the plan ends (stalled neighbors would never "
                           "drain)");
  return "";
}

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(&sim),
      net_(&sim.network()),
      plan_(std::move(plan)),
      degraded_(net_->mesh()) {
  const std::size_t n = static_cast<std::size_t>(net_->mesh().numNodes());
  lost_.assign(n * static_cast<std::size_t>(kNumPorts) *
                   static_cast<std::size_t>(net_->layout().totalVcs()),
               0);
  inReset_.assign(n, 0);
  const std::string illegal = checkPlan(plan_, net_->mesh(), net_->config());
  RAIR_CHECK_MSG(illegal.empty(), illegal.c_str());
}

FaultInjector::~FaultInjector() { detach(); }

void FaultInjector::attach() {
  RAIR_CHECK_MSG(!attached_, "FaultInjector attached twice");
  sim_->observers().attach(this);
  sim_->setFaultHook(this);
  net_->routingMut().setDegraded(&degraded_);
  attached_ = true;
}

void FaultInjector::detach() {
  if (!attached_) return;
  sim_->observers().detach(this);
  sim_->setFaultHook(nullptr);
  net_->routingMut().setDegraded(nullptr);
  attached_ = false;
}

FaultStats FaultInjector::stats() const {
  FaultStats s;
  s.eventsApplied = cursor_;
  s.droppedPackets = sim_->droppedByFault();
  s.droppedFlits = sim_->droppedFlitsByFault();
  s.reroutes = reroutes_;
  s.unreachablePairs = unreachablePairs_;
  s.degradedCycles = degradedCycles_;
  s.recoveryCycles = recoveryCycles_;
  s.corruptedFlits = net_->totalCorruptedFlits();
  s.retransmittedFlits = net_->totalRetransmittedFlits();
  const auto applied = plan_.events().begin() +
                       static_cast<std::ptrdiff_t>(cursor_);
  s.softResets = static_cast<std::uint64_t>(
      std::count_if(plan_.events().begin(), applied, [](const FaultEvent& e) {
        return e.kind == FaultKind::Reset;
      }));
  return s;
}

std::size_t FaultInjector::lostIndex(NodeId node, int port, int vc) const {
  const int tv = net_->layout().totalVcs();
  RAIR_DCHECK(port >= 0 && port < kNumPorts && vc >= 0 && vc < tv);
  return (static_cast<std::size_t>(node) * kNumPorts +
          static_cast<std::size_t>(port)) *
             static_cast<std::size_t>(tv) +
         static_cast<std::size_t>(vc);
}

void FaultInjector::onCycleBegin(Cycle now) {
  if (cursor_ >= plan_.size() && !degraded_.active()) return;

  const bool wasActive = degraded_.active();
  bool topoChanged = false;
  while (cursor_ < plan_.size() && plan_.events()[cursor_].at <= now) {
    const FaultEvent& e = plan_.events()[cursor_++];
    topoChanged |= applyLevel(e);
    applyImpulse(e);
  }
  if (topoChanged) {
    degraded_.recompute();
    applyTopologyChange(now);
    lastTopoChange_ = now;
    unreachablePairs_ =
        std::max(unreachablePairs_, degraded_.unreachablePairs());
  }

  const bool active = degraded_.active();
  if (!wasActive && active) outageStart_ = now;
  if (wasActive && !active) {
    recoveryCycles_ += now - outageStart_;
    outageStart_ = kNeverCycle;
  }
  if (active) ++degradedCycles_;
}

bool FaultInjector::applyLevel(const FaultEvent& e) {
  const bool retx = net_->config().linkLayer == LinkLayerKind::Retx;
  const auto node = static_cast<std::size_t>(e.node);
  switch (e.kind) {
    case FaultKind::LinkDown:
    case FaultKind::LinkUp:
      degraded_.setLinkDead(e.node, e.dir, e.kind == FaultKind::LinkDown);
      return true;
    case FaultKind::PortStall:
      net_->router(e.node).stalledOutPorts_ |=
          1u << static_cast<unsigned>(e.dir);
      return false;
    case FaultKind::PortUnstall:
      net_->router(e.node).stalledOutPorts_ &=
          ~(1u << static_cast<unsigned>(e.dir));
      return false;
    case FaultKind::InjectFreeze:
    case FaultKind::InjectThaw:
      net_->nic(e.node).injectFrozen_ = e.kind == FaultKind::InjectFreeze;
      return false;
    case FaultKind::Reset:
      // Mark every incident channel dead (the node becomes its own
      // component: routing avoids it and reachability dooms traffic to
      // it). Under retx the receiving link ends additionally refuse
      // arrivals so the neighbors' replay buffers redeliver after
      // recovery. The in-router purge happens in applyTopologyChange.
      inReset_[node] = 1;
      ++numInReset_;
      for (int d = static_cast<int>(Dir::North); d < kNumPorts; ++d) {
        const Dir dir = static_cast<Dir>(d);
        if (net_->mesh().neighbor(e.node, dir))
          degraded_.setLinkDead(e.node, dir, true);
      }
      if (retx) setNodeReceiverDown(e.node, true);
      return true;
    case FaultKind::Recover:
      if (!inReset_[node]) return false;  // stranded
      inReset_[node] = 0;
      --numInReset_;
      for (int d = static_cast<int>(Dir::North); d < kNumPorts; ++d) {
        const Dir dir = static_cast<Dir>(d);
        const auto nb = net_->mesh().neighbor(e.node, dir);
        // A channel shared with a neighbor still in reset stays dead;
        // that neighbor's own Recover revives it (setLinkDead is
        // undirected).
        if (nb && !inReset_[static_cast<std::size_t>(*nb)])
          degraded_.setLinkDead(e.node, dir, false);
      }
      if (retx) setNodeReceiverDown(e.node, false);
      return true;
    case FaultKind::CreditLoss:
    case FaultKind::CorruptFlit:
      return false;  // impulses: applyImpulse
  }
  return false;
}

void FaultInjector::applyImpulse(const FaultEvent& e) {
  if (e.kind == FaultKind::CreditLoss) {
    // Only credits actually outstanding can be lost on the wire; the
    // ledger records successful drops so the oracle's equations shift by
    // exactly the destroyed amount.
    for (int i = 0; i < e.count; ++i) {
      if (net_->router(e.node).debugDropCredit(e.dir, e.vc))
        ++lost_[lostIndex(e.node, static_cast<int>(e.dir), e.vc)];
    }
  } else if (e.kind == FaultKind::CorruptFlit) {
    net_->router(e.node)
        .outLinks_[static_cast<std::size_t>(e.dir)]
        ->corruptNext(e.count);
  }
}

void FaultInjector::setNodeReceiverDown(NodeId node, bool down) {
  // inLinks_[Local] is the NIC injection channel, so this loop covers
  // every channel whose receiving end sits inside the router.
  Router& r = net_->router(node);
  for (int p = 0; p < kNumPorts; ++p) {
    if (LinkLayer* in = r.inLinks_[static_cast<std::size_t>(p)])
      in->setReceiverDown(down);
  }
}

void FaultInjector::applyTopologyChange(Cycle now) {
  const Mesh& mesh = net_->mesh();
  const NodeId numNodes = mesh.numNodes();
  const VcLayout& layout = net_->layout();
  const int tv = layout.totalVcs();
  const int localPort = static_cast<int>(Dir::Local);
  const bool retx = net_->config().linkLayer == LinkLayerKind::Retx;

  // ---- Collect the doom set (read-only pass) ----------------------------
  std::vector<PacketId> doomedIds;

  for (NodeId node = 0; node < numNodes; ++node) {
    Router& r = net_->router(node);
    // (a) flits in flight on a dead link — ideal layer only; retx replay
    // buffers hold them for redelivery after recovery.
    if (!retx) {
      for (int p = localPort + 1; p < kNumPorts; ++p) {
        LinkLayer* link = r.outLinks_[static_cast<std::size_t>(p)];
        if (link == nullptr || degraded_.linkAlive(node, static_cast<Dir>(p)))
          continue;
        link->forEachFlit(
            [&](const FlitMsg& m) { doomedIds.push_back(m.flit.pkt); });
      }
    }
    // (b) committed toward a dead port (ideal layer only — on retx the
    // stream stalls against exhausted credits and resumes after
    // recovery); (d) non-ejecting escape allocations (the
    // reconfiguration flush — see injector.h).
    for (int p = 0; p < kNumPorts; ++p) {
      for (int vc = 0; vc < tv; ++vc) {
        const auto& ivc = r.inVc(p, vc);
        if (ivc.state != VcState::Active) continue;
        if (ivc.outPort == localPort) continue;  // ejecting: drains to sink
        const bool deadPort =
            !retx &&
            !degraded_.linkAlive(node, static_cast<Dir>(ivc.outPort));
        if (deadPort || layout.isEscape(ivc.outVc))
          doomedIds.push_back(ivc.pktId);
      }
    }
    // (r) soft reset: everything inside a reset router's input VCs dies,
    // ejecting packets included — a mid-ejection packet's handoff state
    // lives in the router, and the NIC sink consumes per-flit so no tail
    // is owed. On the ideal layer the NIC injection pipe dies too
    // (node-outage semantics); on retx its flits are held for redelivery.
    if (numInReset_ > 0 && inReset_[static_cast<std::size_t>(node)]) {
      for (int p = 0; p < kNumPorts; ++p) {
        for (int vc = 0; vc < tv; ++vc) {
          const auto& ivc = r.inVc(p, vc);
          for (std::size_t i = 0; i < ivc.buf.size(); ++i)
            doomedIds.push_back(ivc.buf[i].pkt);
          if (ivc.state != VcState::Idle) doomedIds.push_back(ivc.pktId);
        }
      }
      if (!retx)
        net_->nic(node).toRouter_->forEachFlit(
            [&](const FlitMsg& m) { doomedIds.push_back(m.flit.pkt); });
    }
  }

  // (c) live packets whose destination is unreachable from where they are.
  // Wormhole flits are contiguous, so any one flit's component is the
  // packet's component; packets with no flit in the network sit at their
  // source NIC (queued or mid-stream).
  if (degraded_.active()) {
    std::vector<NodeId> loc(sim_->ledger().capacity(), kInvalidNode);
    auto note = [&](const Flit& f, NodeId where) {
      loc[PacketPool::slotOf(f.pkt)] = where;
    };
    for (NodeId node = 0; node < numNodes; ++node) {
      const Router& r = net_->router(node);
      for (int p = 0; p < kNumPorts; ++p) {
        for (int vc = 0; vc < tv; ++vc) {
          const auto& buf = r.inVc(p, vc).buf;
          for (std::size_t i = 0; i < buf.size(); ++i) note(buf[i], node);
        }
        const LinkLayer* link = r.outLinks_[static_cast<std::size_t>(p)];
        if (link == nullptr) continue;
        link->forEachFlit([&](const FlitMsg& m) { note(m.flit, node); });
      }
      net_->nic(node).toRouter_->forEachFlit(
          [&](const FlitMsg& m) { note(m.flit, node); });
    }
    sim_->ledger().forEachLive([&](const Packet& p) {
      NodeId where = loc[PacketPool::slotOf(p.id)];
      if (where == kInvalidNode) where = p.src;
      // Under retx a packet parked at a soft-reset node's NIC is not
      // doomed by the node's own temporary isolation — it stalls against
      // the receiver-down injection channel and redelivers after
      // recovery. Reachability for it is re-evaluated at the recovery
      // flush (anything inside the router proper was doomed by rule r).
      if (retx && numInReset_ > 0 &&
          inReset_[static_cast<std::size_t>(where)])
        return;
      if (!degraded_.reachable(where, p.dst)) doomedIds.push_back(p.id);
    });
  }

  std::sort(doomedIds.begin(), doomedIds.end());
  doomedIds.erase(std::unique(doomedIds.begin(), doomedIds.end()),
                  doomedIds.end());
  auto isDoomed = [&doomedIds](PacketId id) {
    return std::binary_search(doomedIds.begin(), doomedIds.end(), id);
  };

  // ---- Purge every flit of every doomed packet, refunding credits -------
  for (NodeId node = 0; node < numNodes; ++node) {
    Router& r = net_->router(node);
    Nic& nic = net_->nic(node);

    for (int p = 0; p < kNumPorts; ++p) {
      for (int vc = 0; vc < tv; ++vc) {
        auto& ivc = r.inVc(p, vc);
        // Filter the buffer; each removed flit frees one slot, refunded to
        // whoever counts this buffer's credits upstream.
        int removed = 0;
        const std::size_t sz = ivc.buf.size();
        for (std::size_t i = 0; i < sz; ++i) {
          Flit f = ivc.buf.front();
          ivc.buf.pop_front();
          if (isDoomed(f.pkt))
            ++removed;
          else
            ivc.buf.push_back(f);
        }
        if (removed > 0) {
          if (p == localPort) {
            int& c = nic.credits_[static_cast<std::size_t>(vc)];
            c += removed;
            RAIR_CHECK_MSG(c <= nic.vcDepth_, "fault refund overflow (NIC)");
          } else {
            const Dir inDir = static_cast<Dir>(p);
            Router& up = net_->router(*mesh.neighbor(node, inDir));
            auto& ovc = up.outVc(static_cast<int>(opposite(inDir)), vc);
            ovc.credits += removed;
            RAIR_CHECK_MSG(ovc.credits <= r.vcDepth_,
                           "fault refund overflow (router)");
          }
        }
        // Rebuild the VC state machine where the strung packet died.
        if (ivc.state != VcState::Idle && isDoomed(ivc.pktId)) {
          if (ivc.state == VcState::Active) {
            auto& ovc = r.outVc(ivc.outPort, ivc.outVc);
            RAIR_CHECK_MSG(
                ovc.allocated && ovc.ownerPort == p && ovc.ownerVc == vc,
                "doomed Active VC does not own its output");
            ovc.allocated = false;
            ovc.ownerPort = -1;
            ovc.ownerVc = -1;
          }
          ivc.route = RouteResult{};
          ivc.outPort = -1;
          ivc.outVc = -1;
          if (ivc.buf.empty()) {
            ivc.state = VcState::Idle;
            ivc.pktId = 0;
          } else {
            // Non-atomic VCs queue packets back-to-back; the survivor in
            // front must start with its head (whole packets were removed).
            RAIR_CHECK_MSG(isHead(ivc.buf.front().type),
                           "fault purge left a headless input VC");
            ivc.state = VcState::Routing;
            ivc.ready = now;
            ivc.pktId = ivc.buf.front().pkt;
          }
        }
      }

      // Out-link in-flight flits (Local = the ejection channel). Each
      // removed flit returns the credit this router spent sending it.
      LinkLayer* link = r.outLinks_[static_cast<std::size_t>(p)];
      if (link == nullptr) continue;
      link->purgeFlits([&](const FlitMsg& m) { return isDoomed(m.flit.pkt); },
                       [&](int vc) {
                         auto& ovc = r.outVc(p, vc);
                         ++ovc.credits;
                         RAIR_CHECK_MSG(ovc.credits <= r.vcDepth_,
                                        "fault refund overflow (pipe)");
                       });
    }

    // NIC injection channel (the NIC is its upstream side).
    nic.toRouter_->purgeFlits(
        [&](const FlitMsg& m) { return isDoomed(m.flit.pkt); },
        [&](int vc) {
          int& c = nic.credits_[static_cast<std::size_t>(vc)];
          ++c;
          RAIR_CHECK_MSG(c <= nic.vcDepth_,
                         "fault refund overflow (inject pipe)");
        });

    // Mid-injection streams: removing the stream releases its VC claim
    // (claims are represented by stream membership). The round-robin
    // pointer shifts with the erasures so the survivors' service order is
    // a deterministic function of pre-purge state.
    std::size_t removedBefore = 0;
    for (std::size_t i = 0; i < nic.active_.size();) {
      if (isDoomed(nic.active_[i].pkt.id)) {
        if (i < nic.rrNext_) ++removedBefore;
        nic.active_.erase(nic.active_.begin() +
                          static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    nic.rrNext_ -= removedBefore;
    if (nic.active_.empty())
      nic.rrNext_ = 0;
    else
      nic.rrNext_ %= nic.active_.size();

    // Source queues: packets whose destination became unreachable.
    for (auto& q : nic.queues_) {
      const std::size_t qsz = q.packets.size();
      for (std::size_t i = 0; i < qsz; ++i) {
        Packet pk = q.packets.front();
        q.packets.pop_front();
        if (!isDoomed(pk.id)) q.packets.push_back(pk);
      }
    }
  }

  // ---- Retire the doomed packets into the accounted drop bucket ---------
  // Ascending id order: the pool free list decides future PacketIds and is
  // snapshot-serialized, so release order must be deterministic.
  for (PacketId id : doomedIds) sim_->faultDropPacket(id);

  // ---- Repair + reroute: stale routes recompute, aggregates rebuild -----
  for (NodeId node = 0; node < numNodes; ++node) {
    Router& r = net_->router(node);
    for (Router::InputVc& ivc : r.inputs_) {
      if (ivc.state != VcState::WaitingVa) continue;
      // The route was computed against the old tables; send the packet
      // back through RC. (Active VCs keep their grant: their output port
      // is alive — dead and escape commitments were doomed.)
      ivc.state = VcState::Routing;
      ivc.route = RouteResult{};
      ivc.outPort = -1;
      ivc.outVc = -1;
      ivc.ready = now;
      ++reroutes_;
    }
    r.recountAggregates();
  }
}

void FaultInjector::save(snapshot::Writer& w) const {
  // Levels (dead links, stalls, freezes, resets) are a function of the
  // plan prefix: restore replays it. Only the cursor, the accounting and
  // the credits the network actually lost are saved.
  w.u64(cursor_);
  w.u64(lastTopoChange_);
  w.u64(outageStart_);
  w.u64(reroutes_);
  w.u64(unreachablePairs_);
  w.u64(degradedCycles_);
  w.u64(recoveryCycles_);

  std::uint32_t lostEntries = 0;
  for (const std::uint64_t v : lost_)
    if (v != 0) ++lostEntries;
  w.u32(lostEntries);
  for (std::size_t i = 0; i < lost_.size(); ++i) {
    if (lost_[i] == 0) continue;
    w.u64(static_cast<std::uint64_t>(i));
    w.u64(lost_[i]);
  }
}

void FaultInjector::restore(snapshot::Reader& r) {
  cursor_ = r.u64();
  RAIR_CHECK_MSG(cursor_ <= plan_.size(),
                 "fault restore: cursor beyond the attached plan");
  lastTopoChange_ = r.u64();
  outageStart_ = r.u64();
  reroutes_ = r.u64();
  unreachablePairs_ = r.u64();
  degradedCycles_ = r.u64();
  recoveryCycles_ = r.u64();

  // Clear every level (restore may rewind a live, already-degraded run),
  // then replay the applied plan prefix through the live path's level
  // function. The network sections carry none of these flags.
  const Mesh& mesh = net_->mesh();
  const bool retx = net_->config().linkLayer == LinkLayerKind::Retx;
  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    net_->router(n).stalledOutPorts_ = 0;
    net_->nic(n).injectFrozen_ = false;
    if (retx) setNodeReceiverDown(n, false);
    for (int d = static_cast<int>(Dir::North); d < kNumPorts; ++d)
      if (mesh.neighbor(n, static_cast<Dir>(d)))
        degraded_.setLinkDead(n, static_cast<Dir>(d), false);
  }
  std::fill(inReset_.begin(), inReset_.end(), 0);
  numInReset_ = 0;
  for (std::size_t i = 0; i < cursor_; ++i) applyLevel(plan_.events()[i]);
  degraded_.recompute();

  std::fill(lost_.begin(), lost_.end(), 0);
  const std::uint32_t lostEntries = r.u32();
  for (std::uint32_t i = 0; i < lostEntries; ++i) {
    const std::uint64_t idx = r.u64();
    RAIR_CHECK_MSG(idx < lost_.size(), "fault restore: lost-credit index");
    lost_[idx] = r.u64();
  }
}

}  // namespace rair::fault

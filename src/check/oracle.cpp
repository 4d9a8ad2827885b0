#include "check/oracle.h"

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rair::check {

namespace {

constexpr int portIdx(Dir d) { return static_cast<int>(d); }

#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

const char* stateName(VcState s) {
  switch (s) {
    case VcState::Idle: return "Idle";
    case VcState::Routing: return "Routing";
    case VcState::WaitingVa: return "WaitingVa";
    case VcState::Active: return "Active";
  }
  return "?";
}

/// The canonical pipeline advances an input VC at most one state per cycle
/// (every stage sets ready = now + 1), so between consecutive cycles only
/// these transitions are reachable. Active can fall back to Routing when a
/// queued packet surfaces behind a departing tail (non-atomic VCs).
bool legalTransition(VcState a, VcState b) {
  if (a == b) return true;
  switch (a) {
    case VcState::Idle: return b == VcState::Routing;
    case VcState::Routing: return b == VcState::WaitingVa;
    case VcState::WaitingVa: return b == VcState::Active;
    case VcState::Active:
      return b == VcState::Idle || b == VcState::Routing;
  }
  return false;
}

}  // namespace

std::string OracleReport::summary() const {
  if (violations.empty()) return "ok";
  std::string s = fmt("cycle %llu: ",
                      static_cast<unsigned long long>(violations.front().cycle));
  s += violations.front().what;
  if (violations.size() > 1 || truncated)
    s += fmt(" (+%zu more%s)", violations.size() - 1,
             truncated ? ", truncated" : "");
  return s;
}

NetworkOracle::NetworkOracle(const Network& net, const PacketPool& ledger,
                             OracleOptions options)
    : net_(&net), ledger_(&ledger), opt_(options) {}

void NetworkOracle::violation(Cycle now, std::string what) {
  if (opt_.failFast) {
    std::fprintf(stderr, "oracle violation at cycle %llu: %s\n",
                 static_cast<unsigned long long>(now), what.c_str());
    std::abort();
  }
  if (report_.violations.size() >= opt_.maxViolations) {
    report_.truncated = true;
    return;
  }
  report_.violations.push_back(OracleViolation{now, std::move(what)});
}

void NetworkOracle::onCycleEnd(Cycle now) {
  if (opt_.period != 0 && now % opt_.period == 0) structuralScan(now);
  if (opt_.deadlockPeriod != 0 && now % opt_.deadlockPeriod == 0)
    deadlockScan(now);
}

void NetworkOracle::onDelivery(const Packet& p) {
  windows_.erase(p.id);
  reportedStarved_.erase(p.id);
  ++deliveredPackets_;
  deliveredFlits_ += p.numFlits;
}

void NetworkOracle::crossValidateTotals(Cycle now,
                                        std::uint64_t deliveredPackets,
                                        std::uint64_t deliveredFlits) {
  if (deliveredPackets != deliveredPackets_)
    violation(now, fmt("metrics census mismatch: registry reports %llu "
                       "delivered packets, oracle counted %llu",
                       static_cast<unsigned long long>(deliveredPackets),
                       static_cast<unsigned long long>(deliveredPackets_)));
  if (deliveredFlits != deliveredFlits_)
    violation(now, fmt("metrics census mismatch: registry reports %llu "
                       "delivered flits, oracle counted %llu",
                       static_cast<unsigned long long>(deliveredFlits),
                       static_cast<unsigned long long>(deliveredFlits_)));
}

void NetworkOracle::scanNow(Cycle now) {
  structuralScan(now);
  deadlockScan(now);
}

void NetworkOracle::finish(Cycle now) {
  scanNow(now);
  if (ledger_->empty() && holdsTraffic())
    violation(now,
              "ledger fully drained but the network still holds traffic "
              "(orphaned flits or undrained VC state)");
}

bool NetworkOracle::holdsTraffic() const {
  // Router and NIC state plus flits on the links. Credits on the wire are
  // not traffic: the last delivery's credit is still returning on the
  // cycle the ledger drains, and creditEquations audits every in-flight
  // credit exactly.
  const int numNodes = net_->mesh().numNodes();
  for (NodeId n = 0; n < numNodes; ++n)
    if (!net_->router(n).quiescent() || !net_->nic(n).quiescent())
      return true;
  const int tv = net_->layout().totalVcs();
  for (const LinkLayer* link : net_->links())
    for (int vc = 0; vc < tv; ++vc)
      if (link->inFlightFlits(vc) != 0) return true;
  return false;
}

void NetworkOracle::structuralScan(Cycle now) {
  ++report_.scans;
  const int numNodes = net_->mesh().numNodes();
  for (NodeId n = 0; n < numNodes; ++n) {
    scanRouter(now, n);
    scanNic(now, n);
    creditEquations(now, n);
  }
  censusScan(now);
  if (opt_.maxInNetworkAge != 0) starvationScan(now);

  // Transition legality needs two consecutive end-of-cycle snapshots.
  const int tv = net_->layout().totalVcs();
  const std::size_t stride = static_cast<std::size_t>(kNumPorts * tv);
  const std::size_t total = static_cast<std::size_t>(numNodes) * stride;
  // A fault-layer topology mutation this cycle rewired VC states
  // out-of-band (purge + reroute-reset), so the one-state-per-cycle
  // transition and ownership-stability checks do not apply across it.
  const bool faultMutated =
      faults_ != nullptr && faults_->lastTopologyChange() == now;
  const bool checkTransitions = havePrev_ && now == prevCycle_ + 1 &&
                                prevState_.size() == total && !faultMutated;
  if (prevState_.size() != total) {
    prevState_.assign(total, 0);
    prevOwner_.assign(total, -1);
    havePrev_ = false;
  }
  for (NodeId n = 0; n < numNodes; ++n) {
    const Router& r = net_->router(n);
    for (int port = 0; port < kNumPorts; ++port) {
      for (int vc = 0; vc < tv; ++vc) {
        const std::size_t slot = static_cast<std::size_t>(n) * stride +
                                 static_cast<std::size_t>(port * tv + vc);
        const VcState cur = r.inVc(port, vc).state;
        const Router::OutputVc& o = r.outVc(port, vc);
        const std::int16_t owner =
            o.allocated
                ? static_cast<std::int16_t>(o.ownerPort * tv + o.ownerVc)
                : std::int16_t{-1};
        if (checkTransitions) {
          const auto prev = static_cast<VcState>(prevState_[slot]);
          if (!legalTransition(prev, cur))
            violation(now, fmt("router %d port %d vc %d: illegal state "
                               "transition %s -> %s",
                               n, port, vc, stateName(prev), stateName(cur)));
          const std::int16_t prevOwner = prevOwner_[slot];
          if (prevOwner >= 0 && owner >= 0 && owner != prevOwner)
            violation(now, fmt("router %d out port %d vc %d: allocated VC "
                               "changed owner %d -> %d without being freed",
                               n, port, vc, prevOwner, owner));
        }
        prevState_[slot] = static_cast<std::uint8_t>(cur);
        prevOwner_[slot] = owner;
      }
    }
  }
  havePrev_ = true;
  prevCycle_ = now;
}

void NetworkOracle::scanRouter(Cycle now, NodeId n) {
  const Router& r = net_->router(n);
  const VcLayout& layout = r.layout_;
  const int tv = layout.totalVcs();
  int occNative = 0, occForeign = 0;
  int numRouting = 0, numWaiting = 0, numActive = 0;

  for (int port = 0; port < kNumPorts; ++port) {
    std::uint64_t routingMask = 0, waitingMask = 0, activeMask = 0;
    for (int vc = 0; vc < tv; ++vc) {
      const auto& ivc = r.inVc(port, vc);
      const std::size_t bufSize = ivc.buf.size();
      if (bufSize > static_cast<std::size_t>(r.vcDepth_))
        violation(now, fmt("router %d port %d vc %d: buffer holds %zu flits, "
                           "depth is %d",
                           n, port, vc, bufSize, r.vcDepth_));

      // State vs. buffer agreement.
      switch (ivc.state) {
        case VcState::Idle:
          if (!ivc.buf.empty())
            violation(now, fmt("router %d port %d vc %d: Idle VC has %zu "
                               "buffered flits",
                               n, port, vc, bufSize));
          break;
        case VcState::Routing:
        case VcState::WaitingVa:
          if (ivc.buf.empty() || !isHead(ivc.buf.front().type))
            violation(now, fmt("router %d port %d vc %d: %s VC without a "
                               "head flit at the buffer front",
                               n, port, vc, stateName(ivc.state)));
          break;
        case VcState::Active:
          break;  // an Active VC may legally drain empty mid-packet
      }

      // Output VC assignment legality.
      if (ivc.state == VcState::Active) {
        if (ivc.outPort < 0 || ivc.outPort >= kNumPorts || ivc.outVc < 0 ||
            ivc.outVc >= tv) {
          violation(now, fmt("router %d port %d vc %d: Active with invalid "
                             "output assignment (%d, %d)",
                             n, port, vc, ivc.outPort, ivc.outVc));
        } else {
          const auto& o = r.outVc(ivc.outPort, ivc.outVc);
          if (!o.allocated || o.ownerPort != port || o.ownerVc != vc)
            violation(now, fmt("router %d port %d vc %d: Active but output "
                               "(%d, %d) is not allocated to it "
                               "(allocated=%d owner=%d/%d)",
                               n, port, vc, ivc.outPort, ivc.outVc,
                               o.allocated ? 1 : 0, o.ownerPort, o.ownerVc));
          if (ivc.route.ejecting) {
            if (ivc.outPort != portIdx(Dir::Local))
              violation(now, fmt("router %d port %d vc %d: ejecting packet "
                                 "allocated non-Local output port %d",
                                 n, port, vc, ivc.outPort));
          } else if (layout.isEscape(ivc.outVc)) {
            if (ivc.outPort != portIdx(ivc.route.escapeDir))
              violation(now, fmt("router %d port %d vc %d: escape VC "
                                 "allocated off the XY direction (port %d, "
                                 "escape dir %d)",
                                 n, port, vc, ivc.outPort,
                                 portIdx(ivc.route.escapeDir)));
          } else {
            bool productive = false;
            for (int i = 0; i < ivc.route.numAdaptive; ++i)
              if (portIdx(ivc.route.adaptiveDirs[i]) == ivc.outPort)
                productive = true;
            if (!productive)
              violation(now, fmt("router %d port %d vc %d: adaptive output "
                                 "port %d is not a productive direction",
                                 n, port, vc, ivc.outPort));
          }
        }
      } else if (ivc.outPort != -1 || ivc.outVc != -1) {
        violation(now, fmt("router %d port %d vc %d: %s VC still holds "
                           "output assignment (%d, %d)",
                           n, port, vc, stateName(ivc.state), ivc.outPort,
                           ivc.outVc));
      }

      // Incrementally-maintained occupancy class of the front flit.
      const std::uint8_t expectClass =
          ivc.buf.empty()
              ? std::uint8_t{0}
              : (r.isNative(ivc.buf.front()) ? std::uint8_t{1}
                                             : std::uint8_t{2});
      if (ivc.occClass != expectClass)
        violation(now, fmt("router %d port %d vc %d: occClass %d, front "
                           "flit implies %d",
                           n, port, vc, ivc.occClass, expectClass));
      if (expectClass == 1) ++occNative;
      if (expectClass == 2) ++occForeign;

      switch (ivc.state) {
        case VcState::Routing:
          ++numRouting;
          routingMask |= std::uint64_t{1} << vc;
          break;
        case VcState::WaitingVa:
          ++numWaiting;
          waitingMask |= std::uint64_t{1} << vc;
          break;
        case VcState::Active:
          ++numActive;
          activeMask |= std::uint64_t{1} << vc;
          break;
        case VcState::Idle:
          break;
      }

      // Wormhole FIFO discipline inside the buffer: flits of one packet
      // are consecutive in seq order; packets abut only tail -> head, and
      // only on non-atomic adaptive VCs.
      for (std::size_t i = 0; i < bufSize; ++i) {
        const Flit& f = ivc.buf[i];
        if (layout.msgClassOf(vc) != f.msgClass)
          violation(now, fmt("router %d port %d vc %d: buffered flit of "
                             "class %d in the class-%d VC block",
                             n, port, vc, static_cast<int>(f.msgClass),
                             static_cast<int>(layout.msgClassOf(vc))));
        if (i == 0) continue;
        const Flit& prev = ivc.buf[i - 1];
        if (prev.pkt == f.pkt) {
          if (f.seq != prev.seq + 1)
            violation(now, fmt("router %d port %d vc %d: flit seq %u follows "
                               "seq %u of the same packet",
                               n, port, vc, static_cast<unsigned>(f.seq),
                               static_cast<unsigned>(prev.seq)));
        } else {
          if (!isTail(prev.type) || !isHead(f.type))
            violation(now, fmt("router %d port %d vc %d: packet boundary in "
                               "buffer without tail -> head",
                               n, port, vc));
          if (r.atomicVcs_ || layout.isEscape(vc))
            violation(now, fmt("router %d port %d vc %d: two packets share "
                               "an atomic VC buffer",
                               n, port, vc));
        }
      }
    }

    if (routingMask != r.routingMask_[static_cast<std::size_t>(port)] ||
        waitingMask != r.waitingMask_[static_cast<std::size_t>(port)] ||
        activeMask != r.activeMask_[static_cast<std::size_t>(port)])
      violation(now, fmt("router %d port %d: pipeline-state bitmasks "
                         "disagree with VC states",
                         n, port));

    // Output VC side: credit bounds, ownership bijection, and the
    // incrementally-maintained free-adaptive count.
    int freeAdaptive = 0;
    for (int vc = 0; vc < tv; ++vc) {
      const auto& o = r.outVc(port, vc);
      if (o.credits < 0 || o.credits > r.vcDepth_)
        violation(now, fmt("router %d out port %d vc %d: credits %d outside "
                           "[0, %d]",
                           n, port, vc, o.credits, r.vcDepth_));
      if (o.allocated) {
        if (o.ownerPort < 0 || o.ownerPort >= kNumPorts || o.ownerVc < 0 ||
            o.ownerVc >= tv) {
          violation(now, fmt("router %d out port %d vc %d: allocated with "
                             "invalid owner (%d, %d)",
                             n, port, vc, o.ownerPort, o.ownerVc));
        } else {
          const auto& owner = r.inVc(o.ownerPort, o.ownerVc);
          if (owner.state != VcState::Active || owner.outPort != port ||
              owner.outVc != vc)
            violation(now, fmt("router %d out port %d vc %d: owner (%d, %d) "
                               "does not point back (state %s, out %d/%d)",
                               n, port, vc, o.ownerPort, o.ownerVc,
                               stateName(owner.state), owner.outPort,
                               owner.outVc));
        }
      } else if (o.ownerPort != -1 || o.ownerVc != -1) {
        violation(now, fmt("router %d out port %d vc %d: unallocated but "
                           "owner fields set (%d, %d)",
                           n, port, vc, o.ownerPort, o.ownerVc));
      }
      if (r.outLinks_[static_cast<std::size_t>(port)] == nullptr &&
          (o.allocated || o.credits != r.vcDepth_))
        violation(now, fmt("router %d out port %d vc %d: unconnected port "
                           "with mutated VC state (credits %d, allocated %d)",
                           n, port, vc, o.credits, o.allocated ? 1 : 0));
      if (layout.isAdaptive(vc) && r.countsAsFree(o, vc)) ++freeAdaptive;
    }
    if (freeAdaptive != r.freeAdaptive_[static_cast<std::size_t>(port)])
      violation(now, fmt("router %d port %d: freeAdaptive counter %d, "
                         "recomputed %d",
                         n, port, r.freeAdaptive_[static_cast<std::size_t>(port)],
                         freeAdaptive));
  }

  if (occNative != r.occNative_ || occForeign != r.occForeign_)
    violation(now, fmt("router %d: occupancy registers native=%d foreign=%d, "
                       "recomputed native=%d foreign=%d",
                       n, r.occNative_, r.occForeign_, occNative, occForeign));
  if (numRouting != r.pendingRc_ || numWaiting != r.pendingVa_ ||
      numActive != r.numActive_)
    violation(now, fmt("router %d: pipeline counters rc=%d va=%d active=%d, "
                       "recomputed rc=%d va=%d active=%d",
                       n, r.pendingRc_, r.pendingVa_, r.numActive_, numRouting,
                       numWaiting, numActive));
}

void NetworkOracle::scanNic(Cycle now, NodeId n) {
  const Nic& nic = net_->nic(n);
  const VcLayout& layout = nic.layout_;
  const int tv = layout.totalVcs();
  for (int vc = 0; vc < tv; ++vc) {
    const int c = nic.credits_[static_cast<std::size_t>(vc)];
    if (c < 0 || c > nic.vcDepth_)
      violation(now, fmt("nic %d vc %d: credits %d outside [0, %d]", n, vc, c,
                         nic.vcDepth_));
  }
  for (std::size_t i = 0; i < nic.active_.size(); ++i) {
    const auto& s = nic.active_[i];
    if (s.vc < 0 || s.vc >= tv) {
      violation(now, fmt("nic %d: stream claims invalid vc %d", n, s.vc));
      continue;
    }
    for (std::size_t j = i + 1; j < nic.active_.size(); ++j)
      if (nic.active_[j].vc == s.vc)
        violation(now, fmt("nic %d: two injection streams share vc %d", n,
                           s.vc));
    if (layout.msgClassOf(s.vc) != s.pkt.msgClass)
      violation(now, fmt("nic %d: class-%d packet streaming into class-%d "
                         "vc %d",
                         n, static_cast<int>(s.pkt.msgClass),
                         static_cast<int>(layout.msgClassOf(s.vc)), s.vc));
    if (!ledger_->isLive(s.pkt.id))
      violation(now, fmt("nic %d: stream holds dead packet id %llu", n,
                         static_cast<unsigned long long>(s.pkt.id)));
    if (s.next >= s.pkt.numFlits)
      violation(now, fmt("nic %d: stream past its packet end (next %u of "
                         "%u flits)",
                         n, static_cast<unsigned>(s.next),
                         static_cast<unsigned>(s.pkt.numFlits)));
  }
}

void NetworkOracle::creditEquations(Cycle now, NodeId n) {
  const Router& r = net_->router(n);
  const int tv = r.layout_.totalVcs();
  const int depth = r.vcDepth_;
  const Mesh& mesh = net_->mesh();

  // Every link is audited exactly once from its upstream side: this
  // router's output links (router-router and ejection), plus the injection
  // link whose upstream side is this node's NIC.
  for (int port = 0; port < kNumPorts; ++port) {
    const LinkLayer* out = r.outLinks_[static_cast<std::size_t>(port)];
    if (out == nullptr) continue;
    const Dir d = static_cast<Dir>(port);
    const Router* downstream = nullptr;
    int downPort = -1;
    if (d != Dir::Local) {
      const auto nb = mesh.neighbor(n, d);
      if (!nb.has_value()) {
        violation(now, fmt("router %d port %d: connected link off the mesh "
                           "edge",
                           n, port));
        continue;
      }
      downstream = &net_->router(*nb);
      downPort = portIdx(opposite(d));
    }
    for (int vc = 0; vc < tv; ++vc) {
      // The link-layer views close the equation for both implementations:
      // a retransmission link counts its unaccepted replay residents as
      // in-flight (wire copies are ghosts; delivered-but-unACKed entries
      // already sit in the downstream buffer counted below).
      int sum = r.outVc(port, vc).credits + out->inFlightFlits(vc) +
                out->inFlightCredits(vc);
      if (downstream != nullptr)
        sum += static_cast<int>(downstream->inVc(downPort, vc).buf.size());
      if (faults_ != nullptr)
        sum += static_cast<int>(faults_->lostCredits(n, port, vc));
      if (sum != depth)
        violation(now, fmt("router %d out port %d vc %d: credit conservation "
                           "broken (credits + in-flight + downstream = %d, "
                           "depth %d)",
                           n, port, vc, sum, depth));
    }
  }

  const LinkLayer* inject = r.inLinks_[portIdx(Dir::Local)];
  if (inject != nullptr) {
    const Nic& nic = net_->nic(n);
    for (int vc = 0; vc < tv; ++vc) {
      const int sum = nic.credits_[static_cast<std::size_t>(vc)] +
                      inject->inFlightFlits(vc) +
                      inject->inFlightCredits(vc) +
                      static_cast<int>(
                          r.inVc(portIdx(Dir::Local), vc).buf.size());
      if (sum != depth)
        violation(now, fmt("nic %d inject vc %d: credit conservation broken "
                           "(credits + in-flight + router buffer = %d, "
                           "depth %d)",
                           n, vc, sum, depth));
    }
  }
}

void NetworkOracle::censusScan(Cycle now) {
  census_.clear();
  streaming_.clear();
  const int numNodes = net_->mesh().numNodes();
  const int tv = net_->layout().totalVcs();

  auto audit = [&](const Flit& f, NodeId node, const char* where) {
    const Packet* p = ledger_->find(f.pkt);
    if (p == nullptr) {
      violation(now, fmt("%s at node %d: flit of dead or stale packet id "
                         "%llu (seq %u)",
                         where, node,
                         static_cast<unsigned long long>(f.pkt),
                         static_cast<unsigned>(f.seq)));
      return;
    }
    if (f.src != p->src || f.dst != p->dst || f.app != p->app ||
        f.msgClass != p->msgClass || f.pktFlits != p->numFlits ||
        f.createCycle != p->createCycle)
      violation(now, fmt("%s at node %d: flit metadata diverged from ledger "
                         "packet %llu",
                         where, node,
                         static_cast<unsigned long long>(f.pkt)));
    if (f.seq >= f.pktFlits)
      violation(now, fmt("%s at node %d: flit seq %u out of range (packet "
                         "has %u flits)",
                         where, node, static_cast<unsigned>(f.seq),
                         static_cast<unsigned>(f.pktFlits)));
    CensusEntry& e = census_[f.pkt];
    e.pktFlits = p->numFlits;
    ++e.count;
    if (f.seq < 64) e.seqMask |= std::uint64_t{1} << f.seq;
  };

  for (NodeId n = 0; n < numNodes; ++n) {
    const Router& r = net_->router(n);
    for (int port = 0; port < kNumPorts; ++port) {
      for (int vc = 0; vc < tv; ++vc) {
        const auto& buf = r.inVc(port, vc).buf;
        for (std::size_t i = 0; i < buf.size(); ++i)
          audit(buf[i], n, "input buffer");
      }
      if (const LinkLayer* out = r.outLinks_[static_cast<std::size_t>(port)])
        out->forEachFlit(
            [&](const FlitMsg& m) { audit(m.flit, n, "output link"); });
    }
    if (const LinkLayer* inject = r.inLinks_[portIdx(Dir::Local)])
      inject->forEachFlit(
          [&](const FlitMsg& m) { audit(m.flit, n, "inject link"); });
    for (const auto& s : net_->nic(n).active_) streaming_.insert(s.pkt.id);
  }

  // Per-packet wormhole ordering: in-network flits form one contiguous,
  // duplicate-free seq range whose bounds never move backwards.
  for (const auto& [id, e] : census_) {
    if (e.pktFlits > 64 || e.count >= 64) continue;  // beyond mask width
    if (std::popcount(e.seqMask) != e.count) {
      violation(now, fmt("packet %llu: duplicated flit (census count %d over "
                         "%d distinct seqs)",
                         static_cast<unsigned long long>(id), e.count,
                         std::popcount(e.seqMask)));
      continue;
    }
    const int lo = std::countr_zero(e.seqMask);
    const int hi = 63 - std::countl_zero(e.seqMask);
    if (e.seqMask >> lo != (std::uint64_t{1} << e.count) - 1)
      violation(now, fmt("packet %llu: in-network flits not contiguous "
                         "(seqs %d..%d, %d flits)",
                         static_cast<unsigned long long>(id), lo, hi,
                         e.count));
    const auto it = windows_.find(id);
    if (it != windows_.end() &&
        (lo < it->second.minSeq || hi < it->second.maxSeq))
      violation(now, fmt("packet %llu: seq window moved backwards "
                         "(%u..%u -> %d..%d)",
                         static_cast<unsigned long long>(id),
                         static_cast<unsigned>(it->second.minSeq),
                         static_cast<unsigned>(it->second.maxSeq), lo, hi));
    windows_[id] = SeqWindow{static_cast<std::uint16_t>(lo),
                             static_cast<std::uint16_t>(hi)};
  }

  // Lost packets: live, past injection, but with no flit anywhere in the
  // network and no stream still emitting flits at the source NIC.
  ledger_->forEachLive([&](const Packet& p) {
    if (p.injectCycle == kNeverCycle) return;  // still queued at the source
    if (census_.find(p.id) != census_.end()) return;
    if (streaming_.find(p.id) != streaming_.end()) return;
    violation(now, fmt("packet %llu (src %d dst %d) injected at cycle %llu "
                       "has vanished: live in the ledger but no flit in the "
                       "network",
                       static_cast<unsigned long long>(p.id), p.src, p.dst,
                       static_cast<unsigned long long>(p.injectCycle)));
  });

  // Windows of packets that left the ledger through any path other than
  // onDelivery would pin memory forever; prune them lazily.
  for (auto it = windows_.begin(); it != windows_.end();) {
    if (!ledger_->isLive(it->first))
      it = windows_.erase(it);
    else
      ++it;
  }
}

void NetworkOracle::deadlockScan(Cycle now) {
  ++report_.deadlockScans;
  const Mesh& mesh = net_->mesh();
  const int numNodes = mesh.numNodes();
  const int tv = net_->layout().totalVcs();
  const std::size_t stride = static_cast<std::size_t>(kNumPorts * tv);
  const std::size_t total = static_cast<std::size_t>(numNodes) * stride;

  // Channel-wait graph restricted to *definitely blocked* input VCs: an
  // Active VC with a flit to send whose allocated output has zero credits
  // and nothing in flight on the link (by credit conservation the
  // downstream buffer is provably full). Each such VC waits on exactly one
  // downstream input VC, so the graph is functional and any cycle is a
  // genuine credit deadlock — transient backpressure cannot appear here.
  std::vector<std::int32_t> waitsOn(total, -1);
  for (NodeId n = 0; n < numNodes; ++n) {
    const Router& r = net_->router(n);
    for (int port = 0; port < kNumPorts; ++port) {
      for (int vc = 0; vc < tv; ++vc) {
        const auto& ivc = r.inVc(port, vc);
        if (ivc.state != VcState::Active || ivc.buf.empty()) continue;
        if (ivc.outPort < 0 || ivc.outPort == portIdx(Dir::Local)) continue;
        const auto& o = r.outVc(ivc.outPort, ivc.outVc);
        if (o.credits != 0) continue;
        const LinkLayer* out =
            r.outLinks_[static_cast<std::size_t>(ivc.outPort)];
        if (out == nullptr) continue;
        if (out->inFlightFlits(ivc.outVc) != 0 ||
            out->inFlightCredits(ivc.outVc) != 0)
          continue;
        const auto nb = mesh.neighbor(n, static_cast<Dir>(ivc.outPort));
        if (!nb.has_value()) continue;
        const int downPort = portIdx(opposite(static_cast<Dir>(ivc.outPort)));
        const std::size_t self = static_cast<std::size_t>(n) * stride +
                                 static_cast<std::size_t>(port * tv + vc);
        waitsOn[self] = static_cast<std::int32_t>(
            static_cast<std::size_t>(*nb) * stride +
            static_cast<std::size_t>(downPort * tv + ivc.outVc));
      }
    }
  }

  // Cycle detection in the functional graph (nodes without a waitsOn edge,
  // including targets that can still make progress, terminate every walk).
  std::vector<std::uint8_t> color(total, 0);  // 0 new, 1 on path, 2 done
  for (std::size_t start = 0; start < total; ++start) {
    if (waitsOn[start] < 0 || color[start] != 0) continue;
    std::size_t cur = start;
    while (true) {
      if (color[cur] == 1) {
        const NodeId rn = static_cast<NodeId>(cur / stride);
        const int rest = static_cast<int>(cur % stride);
        violation(now, fmt("credit deadlock: wait cycle through router %d "
                           "port %d vc %d",
                           rn, rest / tv, rest % tv));
        break;
      }
      if (color[cur] == 2 || waitsOn[cur] < 0) break;
      color[cur] = 1;
      cur = static_cast<std::size_t>(waitsOn[cur]);
    }
    // Mark the walked path resolved.
    cur = start;
    while (color[cur] == 1) {
      color[cur] = 2;
      if (waitsOn[cur] < 0) break;
      cur = static_cast<std::size_t>(waitsOn[cur]);
    }
  }
}

void NetworkOracle::starvationScan(Cycle now) {
  ledger_->forEachLive([&](const Packet& p) {
    if (p.injectCycle == kNeverCycle) return;
    if (now - p.injectCycle <= opt_.maxInNetworkAge) return;
    if (reportedStarved_.find(p.id) != reportedStarved_.end()) return;
    reportedStarved_.insert(p.id);
    violation(now, fmt("starvation: packet %llu (src %d dst %d app %d) has "
                       "been in the network for %llu cycles (bound %llu)",
                       static_cast<unsigned long long>(p.id), p.src, p.dst,
                       static_cast<int>(p.app),
                       static_cast<unsigned long long>(now - p.injectCycle),
                       static_cast<unsigned long long>(opt_.maxInNetworkAge)));
  });
}

}  // namespace rair::check

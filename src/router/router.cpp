#include "router/router.h"

#include <algorithm>
#include <bit>

#include "snapshot/codec.h"

namespace rair {

namespace {
constexpr int portIdx(Dir d) { return static_cast<int>(d); }
}  // namespace

Router::Router(NodeId id, AppId appTag, const RouterConfig& config,
               const Mesh& mesh, const RoutingAlgorithm& routing,
               const ArbiterPolicy& policy, const CongestionView& congestion)
    : id_(id),
      appTag_(appTag),
      layout_(config.layout),
      vcDepth_(config.vcDepth),
      atomicVcs_(config.atomicVcs),
      mesh_(&mesh),
      routing_(&routing),
      policy_(&policy),
      congestion_(&congestion),
      policyState_(policy.makeState()) {
  RAIR_CHECK(vcDepth_ >= 1);
  RAIR_CHECK_MSG(layout_.totalVcs() <= 64,
                 "per-port VC count exceeds the state-bitmask width");
  const auto slots = static_cast<size_t>(kNumPorts * layout_.totalVcs());
  inputs_.resize(slots);
  outputs_.resize(slots);
  for (auto& i : inputs_) i.buf.reserve(static_cast<std::size_t>(vcDepth_));
  for (auto& o : outputs_) o.credits = vcDepth_;
  vaRr_.assign(slots, 0);
  vaRequests_.reserve(slots);
  saInWinners_.reserve(kNumPorts);
  // Every adaptive output VC starts unallocated and fully credited.
  int adaptivePerPort = 0;
  for (int vc = 0; vc < layout_.totalVcs(); ++vc)
    if (layout_.isAdaptive(vc)) ++adaptivePerPort;
  freeAdaptive_.fill(adaptivePerPort);
}

void Router::connectIn(Dir p, LinkLayer* link) {
  inLinks_[portIdx(p)] = link;
  if (link->kind() != LinkLayerKind::Ideal)
    tickIn_[static_cast<size_t>(numTickIn_++)] = link;
}
void Router::connectOut(Dir p, LinkLayer* link) {
  outLinks_[portIdx(p)] = link;
  if (link->kind() != LinkLayerKind::Ideal)
    tickOut_[static_cast<size_t>(numTickOut_++)] = link;
}

bool Router::debugDropCredit(Dir p, int vc) {
  const int port = portIdx(p);
  if (outLinks_[static_cast<size_t>(port)] == nullptr) return false;
  OutputVc& o = outVc(port, vc);
  if (o.credits <= 0) return false;
  const bool wasFree = countsAsFree(o, vc);
  --o.credits;
  noteOutVcFreeChange(port, vc, wasFree);
  return true;
}

bool Router::outVcAvailable(int port, int vc, int flitsNeeded) const {
  if (outLinks_[static_cast<size_t>(port)] == nullptr) return false;
  const OutputVc& o = outVc(port, vc);
  if (o.allocated) return false;
  if (atomicVcs_ || layout_.isEscape(vc)) return o.credits == vcDepth_;
  // Non-atomic: the whole packet must fit behind whatever is queued, so a
  // committed packet never depends on other packets to drain (deadlock
  // safety; see the header comment).
  return o.credits >= flitsNeeded;
}

void Router::noteOutVcFreeChange(int port, int vc, bool wasFree) {
  if (!layout_.isAdaptive(vc)) return;
  const bool nowFree = countsAsFree(outVc(port, vc), vc);
  if (wasFree != nowFree)
    freeAdaptive_[static_cast<size_t>(port)] += nowFree ? 1 : -1;
}

void Router::reclassifyOccupancy(InputVc& ivc) {
  const std::uint8_t next =
      ivc.buf.empty() ? std::uint8_t{0}
                      : (isNative(ivc.buf.front()) ? std::uint8_t{1}
                                                   : std::uint8_t{2});
  if (next == ivc.occClass) return;
  if (ivc.occClass == 1) --occNative_;
  if (ivc.occClass == 2) --occForeign_;
  if (next == 1) ++occNative_;
  if (next == 2) ++occForeign_;
  ivc.occClass = next;
}

RouterOccupancy Router::occupancy() const {
  RouterOccupancy occ;
  occ.nativeOccupiedVcs = occNative_;
  occ.foreignOccupiedVcs = occForeign_;
  return occ;
}

bool Router::quiescent() const {
  for (const auto& ivc : inputs_) {
    if (ivc.state != VcState::Idle || !ivc.buf.empty()) return false;
  }
  for (const auto& ovc : outputs_) {
    if (ovc.allocated) return false;
  }
  return true;
}

void Router::beginCycle(Cycle now) {
  // DPA and friends consume the occupancy measured at the END of the
  // previous cycle (Sec. IV.E: the priority from the previous cycle is
  // used, removing DPA from the critical path).
  if (policyState_) policy_->updateState(policyState_.get(), prevOccupancy_);

  for (int port = 0; port < kNumPorts; ++port) {
    if (LinkLayer* in = inLinks_[static_cast<size_t>(port)]) {
      while (const FlitMsg* msg = in->peekFlit(now)) {
        const int vcIdx = msg->vc;
        InputVc& ivc = inVc(port, vcIdx);
        RAIR_CHECK_MSG(static_cast<int>(ivc.buf.size()) < vcDepth_,
                       "input VC buffer overflow (credit protocol broken)");
        Flit f = msg->flit;
        in->popFlit();  // `msg` is dead from here on
        if (isHead(f.type)) {
          ++f.hops;
          if (ivc.buf.empty()) {
            RAIR_CHECK_MSG(ivc.state == VcState::Idle,
                           "empty VC must be idle");
            ivc.state = VcState::Routing;
            ivc.ready = now + 1;  // BW stage: RC may run next cycle
            ivc.pktId = f.pkt;
            ++pendingRc_;
            setStateBit(routingMask_, port, vcIdx, true);
          } else {
            // Non-atomic VC: the packet queues behind the one in flight;
            // its RC starts when it reaches the buffer head.
            RAIR_CHECK_MSG(!atomicVcs_,
                           "head arrived at a non-empty atomic VC");
          }
        }
        const bool wasEmpty = ivc.buf.empty();
        ivc.buf.push_back(f);
        if (wasEmpty) reclassifyOccupancy(ivc);
      }
    }
    if (LinkLayer* out = outLinks_[static_cast<size_t>(port)]) {
      while (const CreditMsg* credit = out->peekCredit(now)) {
        const int vcIdx = credit->vc;
        out->popCredit();
        OutputVc& o = outVc(port, vcIdx);
        const bool wasFree = countsAsFree(o, vcIdx);
        ++o.credits;
        RAIR_CHECK_MSG(o.credits <= vcDepth_, "credit overflow");
        noteOutVcFreeChange(port, vcIdx, wasFree);
      }
    }
  }
}

void Router::routeCompute(Cycle now) {
  if (pendingRc_ == 0) return;
  for (int port = 0; port < kNumPorts; ++port) {
    std::uint64_t mask = routingMask_[static_cast<size_t>(port)];
    while (mask != 0) {
      const int vc = std::countr_zero(mask);
      mask &= mask - 1;
      InputVc& ivc = inVc(port, vc);
      RAIR_DCHECK(ivc.state == VcState::Routing);
      if (ivc.ready > now) continue;
      RAIR_DCHECK(!ivc.buf.empty() && isHead(ivc.buf.front().type));
      ivc.route = routing_->computeCandidates(*mesh_, id_, ivc.buf.front());
      ivc.state = VcState::WaitingVa;
      ivc.ready = now + 1;
      --pendingRc_;
      ++pendingVa_;
      setStateBit(routingMask_, port, vc, false);
      setStateBit(waitingMask_, port, vc, true);
    }
  }
}

int Router::pickAdaptiveVc(int port, const Flit& f) const {
  const int base = layout_.firstVcOf(f.msgClass);
  const int end = base + layout_.vcsPerClass();
  const int need = f.pktFlits;
  if (!layout_.rairPartition()) {
    for (int vc = base + 1; vc < end; ++vc) {  // skip escape at `base`
      if (outVcAvailable(port, vc, need)) return vc;
    }
    return -1;
  }
  // RAIR VC regionalization: both classes are usable by any traffic, but
  // foreign (global) packets try Global VCs first and native packets
  // Regional VCs first, so each flow lands in the VC class whose
  // prioritization rule favors it when both are free.
  const VcClass preferred =
      isNative(f) ? VcClass::Regional : VcClass::Global;
  int fallback = -1;
  for (int vc = base + 1; vc < end; ++vc) {
    if (!outVcAvailable(port, vc, need)) continue;
    if (layout_.typeOf(vc) == preferred) return vc;
    if (fallback < 0) fallback = vc;
  }
  return fallback;
}

bool Router::selectOutputVc(Cycle now, int inPort, int inVcIdx,
                            VaRequest& out) {
  InputVc& ivc = inVc(inPort, inVcIdx);
  const Flit& head = ivc.buf.front();
  const RouteResult& route = ivc.route;
  out.inPort = inPort;
  out.inVc = inVcIdx;

  const int escPort = route.ejecting ? portIdx(Dir::Local)
                                     : portIdx(route.escapeDir);
  const int escVc = layout_.firstVcOf(head.msgClass);

  // Exact fast path: an adaptive VC that outVcAvailable() would grant
  // also countsAsFree() (atomic or not), so when no candidate port has a
  // free adaptive VC the scans below cannot succeed and only the escape
  // VC is left. Most failing VA attempts under load end here. An
  // ejecting head's only candidate is the Local port.
  const auto hasFreeAdaptive = [&](int port) {
    return freeAdaptive_[static_cast<size_t>(port)] > 0;
  };
  bool anyFreeAdaptive = route.ejecting && hasFreeAdaptive(escPort);
  for (int i = 0; i < route.numAdaptive; ++i)
    anyFreeAdaptive |= hasFreeAdaptive(portIdx(route.adaptiveDirs[i]));

  if (anyFreeAdaptive) {
    if (route.ejecting) {
      // Delivery through the Local port; any VC of the packet's class
      // works (the NIC sink cannot deadlock), adaptive VCs preferred.
      const int vc = pickAdaptiveVc(escPort, head);
      if (vc >= 0) {
        out.outPort = escPort;
        out.outVc = vc;
        return true;
      }
    } else {
      // Selection function: order the productive directions by current
      // congestion information, then take the first with a free
      // adaptive VC.
      RouteResult ordered = route;
      routing_->orderBySelection(*mesh_, *congestion_, id_, head, ordered);
      for (int i = 0; i < ordered.numAdaptive; ++i) {
        const int port = portIdx(ordered.adaptiveDirs[i]);
        const int vc = pickAdaptiveVc(port, head);
        if (vc >= 0) {
          out.outPort = port;
          out.outVc = vc;
          return true;
        }
      }
    }
  }
  // Fall back to the escape VC on the dimension-ordered direction
  // (Duato's protocol: always eventually available).
  if (!outVcAvailable(escPort, escVc, head.pktFlits)) return false;
  out.outPort = escPort;
  out.outVc = escVc;
  (void)now;
  return true;
}

ArbCandidate Router::makeCandidate(const Flit& f, VcClass outClass,
                                   Cycle now) const {
  ArbCandidate c;
  c.flit = &f;
  c.routerApp = appTag_;
  c.outVcClass = outClass;
  c.native = isNative(f);
  c.now = now;
  return c;
}

void Router::vcAllocate(Cycle now) {
  vaRequests_.clear();
  if (pendingVa_ == 0) return;
  // VA input arbitration: each WaitingVa VC independently selects one
  // output VC to request. No inter-flow contention; no policy hook.
  for (int port = 0; port < kNumPorts; ++port) {
    std::uint64_t mask = waitingMask_[static_cast<size_t>(port)];
    while (mask != 0) {
      const int vc = std::countr_zero(mask);
      mask &= mask - 1;
      InputVc& ivc = inVc(port, vc);
      RAIR_DCHECK(ivc.state == VcState::WaitingVa);
      if (ivc.ready > now) continue;
      VaRequest req;
      if (selectOutputVc(now, port, vc, req)) vaRequests_.push_back(req);
    }
  }

  if (vaRequests_.empty()) return;
  // VA output arbitration: one winner per contested output VC, chosen by
  // policy priority with round-robin tie-break over input-VC ids.
  // Group requests by output VC (requests are few; linear scan is fine).
  std::sort(vaRequests_.begin(), vaRequests_.end(),
            [](const VaRequest& a, const VaRequest& b) {
              if (a.outPort != b.outPort) return a.outPort < b.outPort;
              return a.outVc < b.outVc;
            });
  const int totalVcs = layout_.totalVcs();
  for (size_t i = 0; i < vaRequests_.size();) {
    size_t j = i;
    while (j < vaRequests_.size() &&
           vaRequests_[j].outPort == vaRequests_[i].outPort &&
           vaRequests_[j].outVc == vaRequests_[i].outVc) {
      ++j;
    }
    const int outPort = vaRequests_[i].outPort;
    const int outVcIdx = vaRequests_[i].outVc;
    const VcClass outClass = layout_.typeOf(outVcIdx);
    // Find the max-priority request; ties resolved round-robin by flat
    // input VC id relative to the per-output-VC pointer.
    const size_t rrSlot = static_cast<size_t>(outPort * totalVcs + outVcIdx);
    const int rrFrom = vaRr_[rrSlot];
    std::uint64_t bestPrio = 0;
    int bestDist = -1;
    size_t best = i;
    for (size_t k = i; k < j; ++k) {
      const auto& r = vaRequests_[k];
      const InputVc& ivc = inVc(r.inPort, r.inVc);
      const std::uint64_t prio = policy_->priority(
          ArbStage::VaOut, makeCandidate(ivc.buf.front(), outClass, now),
          policyState_.get());
      const int flatId = r.inPort * totalVcs + r.inVc;
      const int dist =
          (flatId - rrFrom + kNumPorts * totalVcs) % (kNumPorts * totalVcs);
      // Prefer higher priority; among equals, smaller round-robin distance.
      if (bestDist < 0 || prio > bestPrio ||
          (prio == bestPrio && dist < bestDist)) {
        bestPrio = prio;
        bestDist = dist;
        best = k;
      }
    }
    const auto& win = vaRequests_[best];
    InputVc& ivc = inVc(win.inPort, win.inVc);
    OutputVc& ovc = outVc(win.outPort, win.outVc);
    (isNative(ivc.buf.front()) ? counters_.vaGrantsNative
                               : counters_.vaGrantsForeign)++;
    if (layout_.isEscape(win.outVc)) ++counters_.escapeAllocations;
    RAIR_DCHECK(
        outVcAvailable(win.outPort, win.outVc,
                       inVc(win.inPort, win.inVc).buf.front().pktFlits));
    {
      const bool wasFree = countsAsFree(ovc, win.outVc);
      ovc.allocated = true;
      noteOutVcFreeChange(win.outPort, win.outVc, wasFree);
    }
    ovc.ownerPort = win.inPort;
    ovc.ownerVc = win.inVc;
    ivc.state = VcState::Active;
    ivc.outPort = win.outPort;
    ivc.outVc = win.outVc;
    ivc.ready = now + 1;  // SA may start next cycle
    --pendingVa_;
    ++numActive_;
    setStateBit(waitingMask_, win.inPort, win.inVc, false);
    setStateBit(activeMask_, win.inPort, win.inVc, true);
    vaRr_[rrSlot] = (win.inPort * totalVcs + win.inVc + 1) %
                    (kNumPorts * totalVcs);
    i = j;
  }
}

void Router::switchAllocateAndTraverse(Cycle now) {
  flitsMovedLastCycle_ = flitsMovedThisCycle_;
  flitsMovedThisCycle_ = 0;

  // SA input arbitration: at most one input VC per input port wins access
  // to the port's crossbar input.
  saInWinners_.clear();
  if (numActive_ == 0) return;
  const int totalVcs = layout_.totalVcs();
  std::uint32_t requestedOutPorts = 0;
  for (int port = 0; port < kNumPorts; ++port) {
    std::uint64_t bestPrio = 0;
    int bestDist = -1;
    int bestVc = -1;
    std::uint64_t mask = activeMask_[static_cast<size_t>(port)];
    while (mask != 0) {
      const int vc = std::countr_zero(mask);
      mask &= mask - 1;
      const InputVc& ivc = inVc(port, vc);
      RAIR_DCHECK(ivc.state == VcState::Active);
      if (ivc.ready > now || ivc.buf.empty()) continue;
      if (stalledOutPorts_ & (1u << ivc.outPort)) continue;  // fault stall
      const OutputVc& ovc = outVc(ivc.outPort, ivc.outVc);
      if (ovc.credits <= 0) continue;  // no downstream buffer space
      const std::uint64_t prio = policy_->priority(
          ArbStage::SaIn,
          makeCandidate(ivc.buf.front(), layout_.typeOf(ivc.outVc), now),
          policyState_.get());
      const int dist = (vc - saInRr_[static_cast<size_t>(port)] + totalVcs) %
                       totalVcs;
      if (bestDist < 0 || prio > bestPrio ||
          (prio == bestPrio && dist < bestDist)) {
        bestPrio = prio;
        bestDist = dist;
        bestVc = vc;
      }
    }
    if (bestVc >= 0) {
      const InputVc& ivc = inVc(port, bestVc);
      saInWinners_.push_back({port, bestVc, ivc.outPort, ivc.outVc});
      requestedOutPorts |= 1u << ivc.outPort;
    }
  }
  if (saInWinners_.empty()) return;

  // SA output arbitration: one winner per requested output port
  // (ascending port order, same as scanning all of them).
  while (requestedOutPorts != 0) {
    const int outPort = std::countr_zero(requestedOutPorts);
    requestedOutPorts &= requestedOutPorts - 1;
    std::uint64_t bestPrio = 0;
    int bestDist = -1;
    int best = -1;
    for (size_t k = 0; k < saInWinners_.size(); ++k) {
      const auto& w = saInWinners_[k];
      if (w.outPort != outPort) continue;
      const InputVc& ivc = inVc(w.inPort, w.inVc);
      const std::uint64_t prio = policy_->priority(
          ArbStage::SaOut,
          makeCandidate(ivc.buf.front(), layout_.typeOf(w.outVc), now),
          policyState_.get());
      const int dist =
          (w.inPort - saOutRr_[static_cast<size_t>(outPort)] + kNumPorts) %
          kNumPorts;
      if (bestDist < 0 || prio > bestPrio ||
          (prio == bestPrio && dist < bestDist)) {
        bestPrio = prio;
        bestDist = dist;
        best = static_cast<int>(k);
      }
    }
    if (best < 0) continue;

    // Switch traversal of the winner.
    const auto& w = saInWinners_[static_cast<size_t>(best)];
    InputVc& ivc = inVc(w.inPort, w.inVc);
    OutputVc& ovc = outVc(w.outPort, w.outVc);
    Flit f = ivc.buf.front();
    ivc.buf.pop_front();
    reclassifyOccupancy(ivc);
    --ovc.credits;
    RAIR_DCHECK(ovc.credits >= 0);
    outLinks_[static_cast<size_t>(w.outPort)]->sendFlit(now, f, w.outVc);
    if (LinkLayer* in = inLinks_[static_cast<size_t>(w.inPort)])
      in->sendCredit(now, w.inVc);
    ++flitsMovedThisCycle_;
    ++counters_.flitsTraversed;
    ++counters_.portFlits[static_cast<size_t>(w.outPort)];
    (isNative(f) ? counters_.saGrantsNative : counters_.saGrantsForeign)++;
    saOutRr_[static_cast<size_t>(outPort)] = (w.inPort + 1) % kNumPorts;
    saInRr_[static_cast<size_t>(w.inPort)] = (w.inVc + 1) % totalVcs;

    if (isTail(f.type)) {
      ivc.outPort = -1;
      ivc.outVc = -1;
      ivc.route = RouteResult{};
      {
        const bool wasFree = countsAsFree(ovc, w.outVc);
        ovc.allocated = false;
        noteOutVcFreeChange(w.outPort, w.outVc, wasFree);
      }
      ovc.ownerPort = -1;
      ovc.ownerVc = -1;
      --numActive_;
      setStateBit(activeMask_, w.inPort, w.inVc, false);
      if (ivc.buf.empty()) {
        ivc.state = VcState::Idle;
        ivc.pktId = 0;
      } else {
        // Non-atomic VC: the next queued packet surfaces; route it.
        RAIR_CHECK_MSG(!atomicVcs_ && isHead(ivc.buf.front().type),
                       "non-head flit surfaced behind a tail");
        ivc.state = VcState::Routing;
        ivc.ready = now + 1;
        ivc.pktId = ivc.buf.front().pkt;
        ++pendingRc_;
        setStateBit(routingMask_, w.inPort, w.inVc, true);
      }
    }
  }
}

void Router::endCycle(Cycle now) {
  // O(1): the occupancy registers are maintained incrementally.
  prevOccupancy_ = occupancy();
  // Link-layer per-cycle hooks: this router is the upstream endpoint of
  // its out-links and the downstream endpoint of its in-links. Running
  // them here — after ST sent this cycle's flit and credits — keeps each
  // wire single-writer-per-phase (see link_layer.h). Only non-ideal
  // links register for ticks (connectIn/connectOut), so an ideal network
  // pays nothing per cycle — exactly the pre-refactor loop.
  for (int i = 0; i < numTickOut_; ++i)
    tickOut_[static_cast<size_t>(i)]->tickUpstream(now);
  for (int i = 0; i < numTickIn_; ++i)
    tickIn_[static_cast<size_t>(i)]->tickDownstream(now);
}

void Router::save(snapshot::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(inputs_.size()));
  for (const InputVc& ivc : inputs_) {
    w.u8(static_cast<std::uint8_t>(ivc.state));
    snapshot::saveRing(w, ivc.buf, snapshot::saveFlit);
    snapshot::saveRoute(w, ivc.route);
    w.i32(ivc.outPort);
    w.i32(ivc.outVc);
    w.u64(ivc.ready);
    w.u8(ivc.occClass);
    w.u64(ivc.pktId);
  }
  for (const OutputVc& ovc : outputs_) {
    w.i32(ovc.credits);
    w.boolean(ovc.allocated);
    w.i32(ovc.ownerPort);
    w.i32(ovc.ownerVc);
  }
  for (const int rr : vaRr_) w.i32(rr);
  for (const int rr : saInRr_) w.i32(rr);
  for (const int rr : saOutRr_) w.i32(rr);
  w.i32(prevOccupancy_.nativeOccupiedVcs);
  w.i32(prevOccupancy_.foreignOccupiedVcs);
  w.u64(counters_.vaGrantsNative);
  w.u64(counters_.vaGrantsForeign);
  w.u64(counters_.saGrantsNative);
  w.u64(counters_.saGrantsForeign);
  w.u64(counters_.escapeAllocations);
  w.u64(counters_.flitsTraversed);
  for (const std::uint64_t f : counters_.portFlits) w.u64(f);
  w.i32(flitsMovedThisCycle_);
  w.i32(flitsMovedLastCycle_);
  w.i32(occNative_);
  w.i32(occForeign_);
  for (const int f : freeAdaptive_) w.i32(f);
  w.i32(pendingRc_);
  w.i32(pendingVa_);
  w.i32(numActive_);
  for (const std::uint64_t m : routingMask_) w.u64(m);
  for (const std::uint64_t m : waitingMask_) w.u64(m);
  for (const std::uint64_t m : activeMask_) w.u64(m);
  w.boolean(policyState_ != nullptr);
  if (policyState_) policyState_->save(w);
}

void Router::restore(snapshot::Reader& r) {
  RAIR_CHECK_MSG(r.u32() == inputs_.size(),
                 "router restore: VC count mismatch");
  for (InputVc& ivc : inputs_) {
    ivc.state = static_cast<VcState>(r.u8());
    snapshot::restoreRing(r, ivc.buf, snapshot::restoreFlit);
    snapshot::restoreRoute(r, ivc.route);
    ivc.outPort = r.i32();
    ivc.outVc = r.i32();
    ivc.ready = r.u64();
    ivc.occClass = r.u8();
    ivc.pktId = r.u64();
  }
  for (OutputVc& ovc : outputs_) {
    ovc.credits = r.i32();
    ovc.allocated = r.boolean();
    ovc.ownerPort = r.i32();
    ovc.ownerVc = r.i32();
  }
  for (int& rr : vaRr_) rr = r.i32();
  for (int& rr : saInRr_) rr = r.i32();
  for (int& rr : saOutRr_) rr = r.i32();
  prevOccupancy_.nativeOccupiedVcs = r.i32();
  prevOccupancy_.foreignOccupiedVcs = r.i32();
  counters_.vaGrantsNative = r.u64();
  counters_.vaGrantsForeign = r.u64();
  counters_.saGrantsNative = r.u64();
  counters_.saGrantsForeign = r.u64();
  counters_.escapeAllocations = r.u64();
  counters_.flitsTraversed = r.u64();
  for (std::uint64_t& f : counters_.portFlits) f = r.u64();
  flitsMovedThisCycle_ = r.i32();
  flitsMovedLastCycle_ = r.i32();
  occNative_ = r.i32();
  occForeign_ = r.i32();
  for (int& f : freeAdaptive_) f = r.i32();
  pendingRc_ = r.i32();
  pendingVa_ = r.i32();
  numActive_ = r.i32();
  for (std::uint64_t& m : routingMask_) m = r.u64();
  for (std::uint64_t& m : waitingMask_) m = r.u64();
  for (std::uint64_t& m : activeMask_) m = r.u64();
  const bool hasPolicyState = r.boolean();
  RAIR_CHECK_MSG(hasPolicyState == (policyState_ != nullptr),
                 "router restore: policy-state presence mismatch");
  if (policyState_) policyState_->restore(r);
}

}  // namespace rair

#include "sim/network.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "snapshot/codec.h"

namespace rair {

namespace {
constexpr std::array<Dir, 4> kRouterDirs = {Dir::North, Dir::East, Dir::South,
                                            Dir::West};
constexpr int dirIdx(Dir d) { return static_cast<int>(d) - 1; }
}  // namespace

Network::Network(const Mesh& mesh, const RegionMap& regions,
                 NetworkConfig config, RoutingKind routingKind,
                 const ArbiterPolicy& policy)
    : mesh_(&mesh),
      regions_(&regions),
      config_(config),
      layout_(config.numClasses, config.vcsPerClass, config.rairPartition,
              config.globalVcsPerClass),
      routing_(makeRouting(routingKind, &regions)),
      policy_(&policy),
      maxHops_(std::max(mesh.width(), mesh.height()) - 1),
      histSlots_(static_cast<std::size_t>(std::max(maxHops_, 1))) {
  const RouterConfig rc{layout_, config_.vcDepth, config_.atomicVcs};
  routers_.reserve(static_cast<size_t>(mesh.numNodes()));
  nics_.reserve(static_cast<size_t>(mesh.numNodes()));
  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    routers_.emplace_back(n, regions.appOf(n), rc, mesh, *routing_, policy,
                          *this);
    nics_.emplace_back(n, regions.appOf(n), layout_, config_.vcDepth,
                       config_.atomicVcs);
  }
  wire();
  neighborTable_.assign(static_cast<size_t>(mesh.numNodes()) * 4, -1);
  for (NodeId n = 0; n < mesh.numNodes(); ++n) {
    for (Dir d : kRouterDirs) {
      if (const auto nb = mesh.neighbor(n, d))
        neighborTable_[static_cast<size_t>(n) * 4 +
                       static_cast<size_t>(dirIdx(d))] = *nb;
    }
  }
  freeHist_.assign(histSlots_ * static_cast<size_t>(mesh.numNodes()) * 4, 0);
}

void Network::wire() {
  // Exact link count up front: the wiring below hands out pointers into
  // the typed link vector, which must therefore never reallocate.
  std::size_t numLinks = 0;
  for (NodeId n = 0; n < mesh_->numNodes(); ++n) {
    for (Dir d : kRouterDirs)
      if (mesh_->neighbor(n, d)) ++numLinks;
    numLinks += 2;  // NIC inject + eject
  }
  const bool retx = config_.linkLayer == LinkLayerKind::Retx;
  if (retx)
    retxLinks_.reserve(numLinks);
  else
    idealLinks_.reserve(numLinks);
  links_.reserve(numLinks);
  // Retx replay capacity: un-ACKed occupancy is bounded by the credits the
  // upstream endpoint can hold (totalVcs * vcDepth) plus the entries whose
  // cumulative ACK is still on the wire (round trip), with slack for the
  // staged-flush cycles.
  const std::size_t replayCap =
      static_cast<std::size_t>(layout_.totalVcs()) *
          static_cast<std::size_t>(config_.vcDepth) +
      2 * static_cast<std::size_t>(config_.linkLatency) + 4;
  // Every wire and replay buffer of the network comes out of one block.
  const Cycle latency = config_.linkLatency;
  linkSlots_ = SlotBlock(numLinks * (retx ? RetxLink::slotBytes(latency,
                                                                replayCap)
                                          : IdealLink::slotBytes(latency)));
  auto makeLink = [&]() -> LinkLayer* {
    if (retx) {
      retxLinks_.emplace_back(latency, replayCap, linkSlots_);
      return &retxLinks_.back();
    }
    idealLinks_.emplace_back(latency, linkSlots_);
    return &idealLinks_.back();
  };

  // Router-to-router links: one per directed edge (east/south owned to
  // avoid duplicates; the reverse direction gets its own link).
  for (NodeId n = 0; n < mesh_->numNodes(); ++n) {
    for (Dir d : kRouterDirs) {
      const auto nb = mesh_->neighbor(n, d);
      if (!nb) continue;
      LinkLayer* link = makeLink();
      links_.push_back(link);
      routers_[static_cast<size_t>(n)].connectOut(d, link);
      routers_[static_cast<size_t>(*nb)].connectIn(opposite(d), link);
    }
    // NIC <-> router local-port links.
    LinkLayer* inject = makeLink();
    links_.push_back(inject);
    LinkLayer* eject = makeLink();
    links_.push_back(eject);
    routers_[static_cast<size_t>(n)].connectIn(Dir::Local, inject);
    routers_[static_cast<size_t>(n)].connectOut(Dir::Local, eject);
    nics_[static_cast<size_t>(n)].connect(inject, eject);
  }
  RAIR_CHECK(links_.size() == numLinks);
}

void Network::phaseInjectRoute(Cycle now, NodeId begin, NodeId end) {
  for (NodeId n = begin; n < end; ++n) {
    nics_[static_cast<size_t>(n)].tick(now);
    Router& r = routers_[static_cast<size_t>(n)];
    r.beginCycle(now);
    r.routeCompute(now);
    r.vcAllocate(now);
  }
}

int Network::phaseTraversePropagate(Cycle now, NodeId begin, NodeId end) {
  int* slot = &freeHist_[writeSlot() *
                         static_cast<size_t>(mesh_->numNodes()) * 4];
  int moved = 0;
  for (NodeId n = begin; n < end; ++n) {
    Router& r = routers_[static_cast<size_t>(n)];
    r.switchAllocateAndTraverse(now);
    moved += r.flitsMovedLastCycle();
    r.endCycle(now);
    int* row = slot + static_cast<size_t>(n) * 4;
    for (int di = 0; di < 4; ++di)
      row[di] = r.freeAdaptiveOutVcs(kRouterDirs[static_cast<size_t>(di)]);
  }
  return moved;
}

std::uint64_t Network::totalFlitsTraversed() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r.counters().flitsTraversed;
  return total;
}

bool Network::quiescent() const {
  for (const auto& r : routers_)
    if (!r.quiescent()) return false;
  for (const auto& n : nics_)
    if (!n.quiescent()) return false;
  for (const LinkLayer* l : links_)
    if (!l->idle()) return false;
  return true;
}

std::uint64_t Network::totalCorruptedFlits() const {
  std::uint64_t total = 0;
  for (const LinkLayer* l : links_) total += l->corruptedFlits();
  return total;
}

std::uint64_t Network::totalRetransmittedFlits() const {
  std::uint64_t total = 0;
  for (const LinkLayer* l : links_) total += l->retransmittedFlits();
  return total;
}

int Network::freeVcsThrough(NodeId n, Dir d) const {
  return routers_[static_cast<size_t>(n)].freeAdaptiveOutVcs(d);
}

int Network::aggregatedFree(NodeId n, Dir d, int hops) const {
  RAIR_DCHECK(d != Dir::Local);
  // Router k hops down the chain, as it was k cycles ago, for k up to the
  // horizon or the mesh edge.
  const auto di = static_cast<size_t>(dirIdx(d));
  const auto slotSize = static_cast<size_t>(mesh_->numNodes()) * 4;
  const int terms = std::clamp(hops, 1, maxHops_);
  std::size_t slot = newest_;
  int sum = 0;
  for (int k = 0; k < terms && n >= 0; ++k) {
    sum += freeHist_[slot * slotSize + static_cast<size_t>(n) * 4 + di];
    slot = slot == 0 ? histSlots_ - 1 : slot - 1;
    n = neighborTable_[static_cast<size_t>(n) * 4 + di];
  }
  return sum;
}

namespace {
std::string elementSection(const char* kind, std::size_t i) {
  char name[32];
  std::snprintf(name, sizeof name, "%s/%zu", kind, i);
  return name;
}
}  // namespace

void Network::save(snapshot::Writer& w) const {
  w.beginSection("net/hist");
  w.u32(static_cast<std::uint32_t>(freeHist_.size()));
  for (std::size_t age = 0; age < histSlots_; ++age)
    for (NodeId n = 0; n < mesh_->numNodes(); ++n)
      for (int di = 0; di < 4; ++di) w.i32(freeHist_[histIndex(age, n, di)]);
  w.endSection();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    w.beginSection(elementSection("router", i));
    routers_[i].save(w);
    w.endSection();
  }
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    w.beginSection(elementSection("nic", i));
    nics_[i].save(w);
    w.endSection();
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    w.beginSection(elementSection("link", i));
    links_[i]->save(w);
    w.endSection();
  }
}

void Network::restore(snapshot::Reader& r) {
  r.beginSection("net/hist");
  RAIR_CHECK_MSG(r.u32() == freeHist_.size(),
                 "network restore: congestion history size mismatch");
  newest_ = 0;
  for (std::size_t age = 0; age < histSlots_; ++age) {
    for (NodeId n = 0; n < mesh_->numNodes(); ++n) {
      for (int di = 0; di < 4; ++di) {
        const std::int32_t v = r.i32();
        RAIR_CHECK_MSG(v >= 0 && v <= layout_.totalVcs(),
                       "network restore: congestion history entry is not a "
                       "VC count");
        freeHist_[histIndex(age, n, di)] = v;
      }
    }
  }
  r.endSection();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    r.beginSection(elementSection("router", i));
    routers_[i].restore(r);
    r.endSection();
  }
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    r.beginSection(elementSection("nic", i));
    nics_[i].restore(r);
    r.endSection();
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    r.beginSection(elementSection("link", i));
    links_[i]->restore(r);
    r.endSection();
  }
}

}  // namespace rair

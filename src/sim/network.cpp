#include "sim/network.h"

#include <algorithm>
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
      maxHops_(std::max(mesh.width(), mesh.height()) - 1) {
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
  agg_.assign(static_cast<size_t>(mesh.numNodes()) * 4 *
                  static_cast<size_t>(maxHops_),
              0);
  aggPrev_ = agg_;
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
  auto makeLink = [&]() -> LinkLayer* {
    if (retx) {
      retxLinks_.emplace_back(config_.linkLatency, replayCap);
      return &retxLinks_.back();
    }
    idealLinks_.emplace_back(config_.linkLatency);
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

int Network::step(Cycle now) {
  for (auto& nic : nics_) nic.tick(now);
  for (auto& r : routers_) r.beginCycle(now);
  for (auto& r : routers_) r.routeCompute(now);
  for (auto& r : routers_) r.vcAllocate(now);
  int moved = 0;
  for (auto& r : routers_) {
    r.switchAllocateAndTraverse(now);
    moved += r.flitsMovedLastCycle();
  }
  for (auto& r : routers_) r.endCycle(now);
  propagateCongestion();
  return moved;
}

void Network::propagateCongestion() {
  std::swap(agg_, aggPrev_);
  for (NodeId n = 0; n < mesh_->numNodes(); ++n) propagateCongestionRow(n);
}

void Network::propagateCongestionRow(NodeId n) {
  const std::size_t H = static_cast<std::size_t>(maxHops_);
  for (int di = 0; di < 4; ++di) {
    const Dir d = static_cast<Dir>(di + 1);
    const int local = routers_[static_cast<size_t>(n)].freeAdaptiveOutVcs(d);
    int* out = &agg_[(static_cast<size_t>(n) * 4 +
                      static_cast<size_t>(di)) * H];
    out[0] = local;
    const NodeId nb = neighborTable_[static_cast<size_t>(n) * 4 +
                                     static_cast<size_t>(di)];
    if (nb >= 0) {
      // h-hop info: local knowledge plus the neighbor's (h-1)-hop
      // aggregate from the previous cycle (1 hop/cycle wire delay).
      const int* prev = &aggPrev_[(static_cast<size_t>(nb) * 4 +
                                   static_cast<size_t>(di)) * H];
      for (std::size_t h = 1; h < H; ++h) out[h] = local + prev[h - 1];
    } else {
      for (std::size_t h = 1; h < H; ++h) out[h] = local;
    }
  }
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

void Network::phaseRetireCongestion() { std::swap(agg_, aggPrev_); }

int Network::phaseTraversePropagate(Cycle now, NodeId begin, NodeId end) {
  int moved = 0;
  for (NodeId n = begin; n < end; ++n) {
    Router& r = routers_[static_cast<size_t>(n)];
    r.switchAllocateAndTraverse(now);
    moved += r.flitsMovedLastCycle();
    r.endCycle(now);
    propagateCongestionRow(n);
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
  const int h = std::clamp(hops, 1, maxHops_) - 1;
  return aggAt(agg_, n, dirIdx(d), h);
}

namespace {
std::string elementSection(const char* kind, std::size_t i) {
  char name[32];
  std::snprintf(name, sizeof name, "%s/%zu", kind, i);
  return name;
}
}  // namespace

void Network::save(snapshot::Writer& w) const {
  w.beginSection("net/agg");
  w.u32(static_cast<std::uint32_t>(agg_.size()));
  for (const int v : agg_) w.i32(v);
  for (const int v : aggPrev_) w.i32(v);
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
  r.beginSection("net/agg");
  RAIR_CHECK_MSG(r.u32() == agg_.size(),
                 "network restore: congestion table size mismatch");
  for (int& v : agg_) v = r.i32();
  for (int& v : aggPrev_) v = r.i32();
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

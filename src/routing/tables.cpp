#include "routing/tables.h"

#include <algorithm>

#include "common/assert.h"

namespace rair {

namespace {

// Deterministic neighbor enumeration order for every BFS in this file.
constexpr Dir kScanOrder[4] = {Dir::North, Dir::East, Dir::South, Dir::West};

}  // namespace

RoutingTables::RoutingTables(const Mesh& mesh)
    : mesh_(&mesh),
      n_(mesh.numNodes()),
      deadOut_(static_cast<std::size_t>(mesh.numNodes()) * 4, 0),
      comp_(static_cast<std::size_t>(mesh.numNodes()), 0),
      dist_(static_cast<std::size_t>(mesh.numNodes()) *
                static_cast<std::size_t>(mesh.numNodes()),
            0),
      treeDir_(static_cast<std::size_t>(mesh.numNodes()) *
                   static_cast<std::size_t>(mesh.numNodes()),
               static_cast<std::uint8_t>(Dir::Local)),
      treeParent_(static_cast<std::size_t>(mesh.numNodes()),
                  static_cast<std::uint8_t>(Dir::Local)),
      treeAdj_(static_cast<std::size_t>(mesh.numNodes()), 0) {
  queue_.reserve(static_cast<std::size_t>(n_));
  recompute();
}

void RoutingTables::setLinkDead(NodeId n, Dir d, bool dead) {
  RAIR_CHECK(mesh_->contains(n) && d != Dir::Local);
  const auto nb = mesh_->neighbor(n, d);
  RAIR_CHECK_MSG(nb.has_value(), "setLinkDead: no channel at mesh edge");
  auto& fwd = deadOut_[static_cast<std::size_t>(n) * 4 +
                       static_cast<std::size_t>(dirIndex(d))];
  auto& rev = deadOut_[static_cast<std::size_t>(*nb) * 4 +
                       static_cast<std::size_t>(dirIndex(opposite(d)))];
  RAIR_DCHECK(fwd == rev);
  const std::uint8_t v = dead ? 1 : 0;
  if (fwd == v) return;
  fwd = rev = v;
  numDead_ += dead ? 1 : -1;
  RAIR_DCHECK(numDead_ >= 0);
}

bool RoutingTables::linkAlive(NodeId n, Dir d) const {
  if (d == Dir::Local) return true;
  if (!mesh_->neighbor(n, d).has_value()) return false;
  return deadOut_[static_cast<std::size_t>(n) * 4 +
                  static_cast<std::size_t>(dirIndex(d))] == 0;
}

void RoutingTables::rebuildTreeAdj() {
  std::fill(treeAdj_.begin(), treeAdj_.end(), std::uint8_t{0});
  for (NodeId v = 0; v < n_; ++v) {
    const Dir pd = static_cast<Dir>(treeParent_[static_cast<std::size_t>(v)]);
    if (pd == Dir::Local) continue;  // component root
    const NodeId p = *mesh_->neighbor(v, pd);
    treeAdj_[static_cast<std::size_t>(v)] |=
        static_cast<std::uint8_t>(1u << dirIndex(pd));
    treeAdj_[static_cast<std::size_t>(p)] |=
        static_cast<std::uint8_t>(1u << dirIndex(opposite(pd)));
  }
}

void RoutingTables::rebuildColumns(NodeId dst) {
  // Graph BFS from dst (confined to dst's component by construction).
  queue_.clear();
  queue_.push_back(dst);
  dist_[at(dst, dst)] = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId cur = queue_[head];
    const std::int16_t dc = dist_[at(dst, cur)];
    for (Dir d : kScanOrder) {
      if (!linkAlive(cur, d)) continue;
      const NodeId nb = *mesh_->neighbor(cur, d);
      if (dist_[at(dst, nb)] >= 0) continue;
      dist_[at(dst, nb)] = static_cast<std::int16_t>(dc + 1);
      queue_.push_back(nb);
    }
  }
  // Tree BFS from dst: the first edge out of `node` on the unique tree
  // path to dst is the edge through which the BFS from dst reached it.
  queue_.clear();
  queue_.push_back(dst);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId cur = queue_[head];
    for (Dir d : kScanOrder) {
      if (!(treeAdj_[static_cast<std::size_t>(cur)] & (1u << dirIndex(d))))
        continue;
      const NodeId nb = *mesh_->neighbor(cur, d);
      if (nb == dst ||
          treeDir_[at(dst, nb)] != static_cast<std::uint8_t>(Dir::Local))
        continue;
      treeDir_[at(dst, nb)] = static_cast<std::uint8_t>(opposite(d));
      queue_.push_back(nb);
    }
  }
}

void RoutingTables::recompute() {
  // Component labels + BFS spanning tree in one pass: BFS from each
  // unlabelled node, lowest id first; treeParent is the direction from a
  // node back toward its BFS parent (Local for the root). A component of
  // s nodes holds s(s-1) ordered pairs; every other pair is unreachable.
  std::fill(comp_.begin(), comp_.end(), std::int32_t{-1});
  const auto total = static_cast<std::uint64_t>(n_);
  unreachablePairs_ = total * (total - 1);
  std::int32_t label = -1;
  for (NodeId root = 0; root < n_; ++root) {
    if (comp_[static_cast<std::size_t>(root)] >= 0) continue;
    ++label;
    queue_.clear();
    queue_.push_back(root);
    comp_[static_cast<std::size_t>(root)] = label;
    treeParent_[static_cast<std::size_t>(root)] =
        static_cast<std::uint8_t>(Dir::Local);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const NodeId cur = queue_[head];
      for (Dir d : kScanOrder) {
        if (!linkAlive(cur, d)) continue;
        const NodeId nb = *mesh_->neighbor(cur, d);
        if (comp_[static_cast<std::size_t>(nb)] >= 0) continue;
        comp_[static_cast<std::size_t>(nb)] = label;
        treeParent_[static_cast<std::size_t>(nb)] =
            static_cast<std::uint8_t>(opposite(d));
        queue_.push_back(nb);
      }
    }
    const std::uint64_t size = queue_.size();
    unreachablePairs_ -= size * (size - 1);
  }

  rebuildTreeAdj();
  std::fill(dist_.begin(), dist_.end(), std::int16_t{-1});
  std::fill(treeDir_.begin(), treeDir_.end(),
            static_cast<std::uint8_t>(Dir::Local));
  for (NodeId dst = 0; dst < n_; ++dst) rebuildColumns(dst);
}

int RoutingTables::distance(NodeId from, NodeId to) const {
  RAIR_DCHECK(mesh_->contains(from) && mesh_->contains(to));
  return dist_[at(to, from)];
}

Dir RoutingTables::escapeDir(NodeId here, NodeId dst) const {
  RAIR_DCHECK(here != dst && reachable(here, dst));
  const Dir d = static_cast<Dir>(treeDir_[at(dst, here)]);
  RAIR_DCHECK(d != Dir::Local);
  return d;
}

RouteResult RoutingTables::routeFor(NodeId here, NodeId dst) const {
  RouteResult r;
  if (here == dst) {
    r.ejecting = true;
    return r;
  }
  RAIR_CHECK_MSG(reachable(here, dst),
                 "degraded routeFor: destination unreachable");
  const std::int16_t dh = dist_[at(dst, here)];
  for (Dir d : kScanOrder) {
    if (r.numAdaptive >= 2) break;
    if (!linkAlive(here, d)) continue;
    const NodeId nb = *mesh_->neighbor(here, d);
    if (dist_[at(dst, nb)] == dh - 1)
      r.adaptiveDirs[static_cast<std::size_t>(r.numAdaptive++)] = d;
  }
  RAIR_DCHECK(r.numAdaptive >= 1);
  r.escapeDir = escapeDir(here, dst);
  return r;
}

}  // namespace rair

#include "link/link_layer.h"

#include <vector>

#include "snapshot/codec.h"

namespace rair {

const char* linkLayerKindName(LinkLayerKind kind) {
  switch (kind) {
    case LinkLayerKind::Ideal:
      return "ideal";
    case LinkLayerKind::Retx:
      return "retx";
  }
  RAIR_CHECK_MSG(false, "unknown link layer kind");
  return "?";
}

std::optional<LinkLayerKind> linkLayerKindFromName(std::string_view name) {
  if (name == "ideal") return LinkLayerKind::Ideal;
  if (name == "retx") return LinkLayerKind::Retx;
  return std::nullopt;
}

int IdealLink::inFlightFlits(int vc) const {
  int n = 0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (data_.entry(i).second.vc == vc) ++n;
  return n;
}

int IdealLink::inFlightCredits(int vc) const {
  int n = 0;
  for (std::size_t i = 0; i < credits_.size(); ++i)
    if (credits_.entry(i).second.vc == vc) ++n;
  return n;
}

void IdealLink::forEachFlit(
    const std::function<void(const FlitMsg&)>& fn) const {
  for (std::size_t i = 0; i < data_.size(); ++i) fn(data_.entry(i).second);
}

int IdealLink::purgeFlits(const std::function<bool(const FlitMsg&)>& doomed,
                          const std::function<void(int)>& refundCredit) {
  std::vector<std::pair<Cycle, FlitMsg>> keep;
  keep.reserve(data_.size());
  int removed = 0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const auto& [arrival, msg] = data_.entry(i);
    if (doomed(msg)) {
      refundCredit(msg.vc);
      ++removed;
    } else {
      keep.emplace_back(arrival, msg);
    }
  }
  if (removed > 0) {
    data_.clearForRestore();
    for (auto& [arrival, msg] : keep)
      data_.pushAbsolute(arrival, std::move(msg));
  }
  return removed;
}

void IdealLink::corruptNext(int) {
  RAIR_CHECK_MSG(false,
                 "corrupt_flit faults require the retx link layer "
                 "(--link-layer retx)");
}

void IdealLink::setReceiverDown(bool) {
  RAIR_CHECK_MSG(false,
                 "receiver-down recovery requires the retx link layer; "
                 "ideal-layer soft resets purge in-flight flits instead");
}

void IdealLink::save(snapshot::Writer& w) const {
  snapshot::saveDelayPipe(w, data_, snapshot::saveFlitMsg);
  snapshot::saveDelayPipe(w, credits_, snapshot::saveCreditMsg);
}

void IdealLink::restore(snapshot::Reader& r) {
  snapshot::restoreDelayPipe(r, data_, snapshot::restoreFlitMsg);
  snapshot::restoreDelayPipe(r, credits_, snapshot::restoreCreditMsg);
}

}  // namespace rair

#include "snapshot/bisect.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.h"
#include "snapshot/buffer.h"

namespace rair::snapshot {

std::string firstDifferingSection(const std::vector<std::uint8_t>& a,
                                  const std::vector<std::uint8_t>& b) {
  if (a == b) return {};
  const std::vector<SectionInfo> sa = listSections(a);
  const std::vector<SectionInfo> sb = listSections(b);
  const std::size_t n = std::min(sa.size(), sb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (sa[i].name != sb[i].name) return "<framing>";
    if (sa[i].size != sb[i].size ||
        (sa[i].size != 0 &&
         std::memcmp(a.data() + sa[i].offset, b.data() + sb[i].offset,
                     sa[i].size) != 0))
      return sa[i].name;
  }
  return "<framing>";  // equal prefix, different section counts
}

namespace {

std::vector<std::uint8_t> serialized(const Simulator& sim) {
  Writer w;
  sim.save(w);
  return w.payload();
}

}  // namespace

BisectResult firstDivergence(Simulator& straight, Simulator& restored,
                             Cycle horizon) {
  RAIR_CHECK_MSG(straight.now() == restored.now(),
                 "firstDivergence: the two runs are at different cycles");
  for (;;) {
    std::string s =
        firstDifferingSection(serialized(straight), serialized(restored));
    if (!s.empty()) return {true, straight.now(), std::move(s)};
    if (straight.now() >= horizon) return {};
    straight.stepCycle();
    restored.stepCycle();
  }
}

BisectResult bisectDivergence(const ScenarioSpec& spec, Cycle snapAt,
                              Cycle horizon) {
  return bisectDivergence(spec, spec, snapAt, horizon);
}

BisectResult bisectDivergence(const ScenarioSpec& saveSpec,
                              const ScenarioSpec& restoreSpec, Cycle snapAt,
                              Cycle horizon) {
  RAIR_CHECK_MSG(snapAt < horizon, "bisectDivergence: empty cycle range");
  AssembledScenario straight = assembleScenario(saveSpec);
  straight.sim->begin();
  while (straight.sim->now() < snapAt) straight.sim->stepCycle();
  const std::vector<std::uint8_t> snap = serialized(*straight.sim);

  AssembledScenario restored = assembleScenario(restoreSpec);
  Reader r(snap);
  restored.sim->restore(r);
  RAIR_CHECK_MSG(r.atEnd(), "bisect: trailing bytes after restore");
  restored.sim->begin();
  return firstDivergence(*straight.sim, *restored.sim, horizon);
}

}  // namespace rair::snapshot

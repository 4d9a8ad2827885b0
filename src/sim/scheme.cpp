#include "sim/scheme.h"

#include "common/assert.h"
#include "core/rair_policy.h"
#include "policy/stc.h"

namespace rair {

std::unique_ptr<ArbiterPolicy> makePolicy(
    const SchemeSpec& scheme, const std::vector<double>& appIntensities) {
  switch (scheme.policy) {
    case PolicyKind::RoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::AgeBased:
      return std::make_unique<AgeBasedPolicy>();
    case PolicyKind::StcRank:
      return std::make_unique<StcRankPolicy>(
          StcRankPolicy::ranksFromIntensities(appIntensities),
          scheme.stcBatchPeriod);
    case PolicyKind::Rair:
      return std::make_unique<RairPolicy>(scheme.rair);
  }
  RAIR_CHECK_MSG(false, "unknown PolicyKind");
}

SchemeSpec schemeRoRr(RoutingKind routing) {
  SchemeSpec s;
  s.label = routing == RoutingKind::Dbar ? "RO_RR_DBAR"
            : routing == RoutingKind::Xy ? "RO_RR_XY"
                                         : "RO_RR";
  s.routing = routing;
  s.policy = PolicyKind::RoundRobin;
  return s;
}

SchemeSpec schemeRoRank(RoutingKind routing) {
  SchemeSpec s;
  s.label = "RO_Rank";
  s.routing = routing;
  s.policy = PolicyKind::StcRank;
  return s;
}

SchemeSpec schemeRaDbar() {
  SchemeSpec s;
  s.label = "RA_DBAR";
  s.routing = RoutingKind::Dbar;
  s.policy = PolicyKind::RoundRobin;
  return s;
}

SchemeSpec schemeRaRair(RoutingKind routing) {
  SchemeSpec s;
  s.label = routing == RoutingKind::Dbar ? "RAIR_DBAR" : "RA_RAIR";
  s.routing = routing;
  s.policy = PolicyKind::Rair;
  return s;
}

SchemeSpec schemeRairVaOnly(RoutingKind routing) {
  SchemeSpec s = schemeRaRair(routing);
  s.label = "RAIR_VA";
  s.rair.applyAtSa = false;
  return s;
}

SchemeSpec schemeRairNativeHigh() {
  SchemeSpec s = schemeRaRair();
  s.label = "RAIR_NativeH";
  s.rair.dpaMode = DpaMode::NativeHigh;
  return s;
}

SchemeSpec schemeRairForeignHigh() {
  SchemeSpec s = schemeRaRair();
  s.label = "RAIR_ForeignH";
  s.rair.dpaMode = DpaMode::ForeignHigh;
  return s;
}

std::vector<SchemeSpec> labelledSchemes() {
  return {schemeRoRr(),
          schemeRoRr(RoutingKind::Xy),
          schemeRoRr(RoutingKind::Dbar),
          schemeRoRank(),
          schemeRaDbar(),
          schemeRaRair(),
          schemeRaRair(RoutingKind::Dbar),
          schemeRairVaOnly(),
          schemeRairNativeHigh(),
          schemeRairForeignHigh()};
}

std::optional<SchemeSpec> schemeByLabel(std::string_view label) {
  for (SchemeSpec& s : labelledSchemes())
    if (s.label == label) return std::move(s);
  return std::nullopt;
}

}  // namespace rair

// Named interference-reduction schemes: the cross product of a routing
// algorithm and an arbitration policy, as compared in the paper's
// evaluation (RO_RR, RO_Rank, RA_DBAR, RA_RAIR, plus RAIR ablations).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/rair_config.h"
#include "policy/policy.h"
#include "routing/routing.h"

namespace rair {

enum class PolicyKind : std::uint8_t {
  RoundRobin,  ///< RO_RR
  AgeBased,    ///< RO_Age (oldest-first)
  StcRank,     ///< RO_Rank (idealized STC)
  Rair,        ///< RA_RAIR (and its ablation modes via RairConfig)
};

struct SchemeSpec {
  std::string label;
  RoutingKind routing = RoutingKind::LocalAdaptive;
  PolicyKind policy = PolicyKind::RoundRobin;
  RairConfig rair;               ///< used when policy == Rair
  Cycle stcBatchPeriod = 16'000; ///< used when policy == StcRank

  /// Whether this scheme needs the regional/global VC tagging in hardware.
  bool needsRairPartition() const { return policy == PolicyKind::Rair; }
};

/// Builds the policy object for a scheme. `appIntensities[app]` is the
/// offered load of each application in flits/cycle/node — the oracle input
/// for RO_Rank's optimal ranking (the paper assumes STC "is able to always
/// find the optimal application rankings"); ignored by the other policies.
std::unique_ptr<ArbiterPolicy> makePolicy(
    const SchemeSpec& scheme, const std::vector<double>& appIntensities);

// ---- The paper's scheme line-up ------------------------------------------

/// RO_RR on the given routing.
SchemeSpec schemeRoRr(RoutingKind routing = RoutingKind::LocalAdaptive);
/// RO_Rank (idealized STC).
SchemeSpec schemeRoRank(RoutingKind routing = RoutingKind::LocalAdaptive);
/// RA_DBAR: round-robin arbitration on DBAR routing.
SchemeSpec schemeRaDbar();
/// RA_RAIR: full RAIR on the given routing.
SchemeSpec schemeRaRair(RoutingKind routing = RoutingKind::LocalAdaptive);
/// RAIR with MSP at VA only (Fig. 9's RAIR_VA).
SchemeSpec schemeRairVaOnly(RoutingKind routing = RoutingKind::LocalAdaptive);
/// RAIR without DPA, native always high (Fig. 12's RAIR_NativeH).
SchemeSpec schemeRairNativeHigh();
/// RAIR without DPA, foreign always high (Fig. 12's RAIR_ForeignH).
SchemeSpec schemeRairForeignHigh();

/// Every scheme the constructors above build under a label of its own, in
/// line-up order: the schemes a tool can name on its command line.
std::vector<SchemeSpec> labelledSchemes();

/// The labelled scheme called `label` (e.g. "RA_RAIR"); nullopt for an
/// unknown label.
std::optional<SchemeSpec> schemeByLabel(std::string_view label);

}  // namespace rair

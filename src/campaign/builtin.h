// Built-in campaigns: one per reproduced paper figure / ablation, built
// from the exact workloads in scenarios/paper_scenarios.h. These are the
// single source of truth for the scheme x load grids: tools/rair_campaign
// runs them, one campaign per figure or ablation.
//
// Building a campaign resolves the paper's "x% of saturation" loads via
// empirical calibration (sim/saturation.h), which is the expensive
// pre-pass; the BuildContext routes those scalars through a memo hook so
// a results-file-backed context (the CLI) pays for calibration only once
// across invocations.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "sim/saturation.h"

namespace rair::campaign {

/// The paper's measurement windows (Sec. V.A: 10K warmup / 100K
/// measured), shrunk 5x in fast mode for smoke runs.
SimConfig paperSimConfig(bool fast);

/// Shorter windows for saturation calibration (knee finding).
SaturationOptions paperSatOptions(bool fast);

/// Everything a campaign builder needs.
struct BuildContext {
  SimConfig sim;          ///< measurement windows for the cells
  SaturationOptions sat;  ///< calibration windows
  std::uint64_t campaignSeed = 1;
  /// Fault-density axis of the `faults` campaign: base event rate in
  /// faults per 1000 cycles of the measurement window. When > 0, the
  /// campaign grows `<scheme>/density{0.5x,1x,2x}` cells whose plans are
  /// MTBF-style seeded random draws (fault/random_plan.h) at the scaled
  /// rate — transient events only, so every cell still drains. 0 (the
  /// default) leaves the campaign exactly as before, so existing records
  /// and goldens are unaffected. The event family follows sim.net.linkLayer
  /// (outages on ideal links, corruption bursts on retx links).
  double faultDensity = 0.0;
  /// Memoization hook for expensive calibration scalars: returns the
  /// cached value for `key` or computes, caches and returns `fn()`.
  std::function<double(const std::string&,
                       const std::function<double()>&)> value;
  /// Progress reporting during calibration; may be null.
  std::function<void(const std::string&)> log;
};

/// A context with an in-memory value cache and the paper windows.
BuildContext defaultBuildContext(bool fast);

/// Names of all built-in campaigns ("fig09", "fig10", ...).
std::vector<std::string> builtinCampaignNames();
bool isBuiltinCampaign(const std::string& name);

/// Builds the named campaign (RAIR_CHECKs on unknown names). Calibration
/// runs eagerly through ctx.value; cell simulations stay lazy.
CampaignSpec buildBuiltinCampaign(const std::string& name, BuildContext& ctx);

}  // namespace rair::campaign

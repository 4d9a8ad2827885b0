// Parallel campaign execution.
//
// runCampaign() executes a CampaignSpec's cells on a fixed-size worker
// pool (std::thread over a shared atomic work index). Each cell gets its
// deterministic seed from cellSeed(campaignSeed, cellIndex) and runs a
// fully independent simulation, so results are identical for any --jobs
// value and any completion order. Completed cells are appended to the
// JSON Lines results file as they finish; re-running against the same
// file executes only the missing cells (skip-completed resume).
//
// A cell that hits the drain limit or the deadlock/livelock tripwire is
// captured as a structured record (termination != "drained") — it does
// not abort the campaign.
#pragma once

#include <functional>
#include <string>

#include "campaign/campaign.h"

namespace rair::campaign {

struct RunnerOptions {
  int jobs = 0;         ///< worker threads; 0 = hardware_concurrency
  std::string outPath;  ///< JSON Lines sink; empty disables persistence
  bool resume = true;   ///< skip cells already recorded in outPath
  /// Campaign-wide settings every cell runs with: snapshot options, shard
  /// threads, fault plan and metrics. The runner sets each cell's seed
  /// and, when `cell.metrics.outPrefix` is set, extends it to the cell's
  /// own sink prefix "<outPrefix><campaign>_<key>." ('/' in keys
  /// flattened to '_'). A fault plan changes results — faulted records
  /// must go to their own outPath.
  CellContext cell;
  /// Progress reporting (one line per completed cell); null = silent.
  std::function<void(const std::string&)> log;
};

struct CampaignSummary {
  /// One record per spec cell, in spec order (cached + freshly executed).
  std::vector<CellRecord> records;
  std::size_t executed = 0;   ///< cells simulated in this invocation
  std::size_t skipped = 0;    ///< resume hits
  std::size_t tripwired = 0;  ///< records with termination != drained
  double wallMs = 0.0;        ///< end-to-end wall time of this invocation

  CellLookup lookup() const;
};

CampaignSummary runCampaign(const CampaignSpec& spec,
                            const RunnerOptions& options = {});

}  // namespace rair::campaign

// Declarative experiment campaigns.
//
// Every figure and ablation of the paper is a grid of fully independent
// cycle-accurate simulations (scheme x load point x seed). A CampaignSpec
// describes such a grid as a list of cells; each cell knows how to run
// its simulation given a seed, and the runner (campaign/runner.h) derives
// that seed deterministically from (campaignSeed, cellIndex) — so a
// campaign's results are bit-identical no matter how many worker threads
// execute it or in which order the cells complete.
//
// A completed cell becomes a CellRecord: a structured, JSON-serializable
// outcome (per-app APLs, delivered flit rate, termination status, wall
// time) that is appended to a JSON Lines results file and used both for
// skip-completed resume and for rendering the paper-style tables.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scenario.h"

namespace rair::campaign {

/// Derives the RNG seed of cell `index` from the campaign master seed
/// (SplitMix64 finalizer over the combined words). Depends only on its
/// two arguments, so a cell's simulation is reproducible in isolation.
std::uint64_t cellSeed(std::uint64_t campaignSeed, std::size_t index);

/// Aggregate instrumentation embedded in a cell record when the campaign
/// ran with --metrics summary or above. Absent at the default counters
/// level, so default records stay byte-identical to uninstrumented runs.
struct CellMetrics {
  std::uint64_t vaGrantsNative = 0;
  std::uint64_t vaGrantsForeign = 0;
  std::uint64_t saGrantsNative = 0;
  std::uint64_t saGrantsForeign = 0;
  std::uint64_t escapeAllocations = 0;
  std::uint64_t flitsTraversed = 0;
  std::uint64_t dpaFlips = 0;
};

/// Structured outcome of one executed (or cached) campaign cell.
struct CellRecord {
  std::string campaign;  ///< owning campaign name
  std::string key;       ///< unique within the campaign, stable across runs
  /// Ordered descriptive labels ("scheme" -> "RA_RAIR", "p" -> "100", ...)
  /// used by table renderers; serialized into the JSON record.
  std::vector<std::pair<std::string, std::string>> labels;
  std::uint64_t seed = 0;  ///< the derived per-cell RNG seed actually used
  Termination termination = Termination::DrainLimit;
  Cycle cyclesRun = 0;
  std::uint64_t packetsCreated = 0;
  std::uint64_t packetsDelivered = 0;
  double deliveredFlitRate = 0.0;
  std::vector<double> appApl;  ///< per application (index = AppId)
  double meanApl = 0.0;        ///< over all measured packets
  /// Present only when the cell ran at MetricsLevel::Summary or above.
  std::optional<CellMetrics> metrics;
  /// Present only when the cell ran with a fault plan attached; fault-free
  /// cells keep their records byte-identical to pre-fault builds.
  std::optional<fault::FaultStats> fault;
  double wallMs = 0.0;  ///< volatile: excluded from the canonical form
  bool fromCache = false;  ///< loaded from a results file (not serialized)

  bool drained() const { return termination == Termination::Drained; }

  const std::string* label(std::string_view name) const;

  /// Relative APL reduction vs. a baseline record (paper headline metric).
  double reductionVs(const CellRecord& base, std::size_t app) const;
  double meanReductionVs(const CellRecord& base) const;

  /// One JSON Lines record. The canonical form (includeVolatile = false)
  /// omits wall_ms and is byte-stable across runs and worker counts.
  std::string toJsonLine(bool includeVolatile = true) const;
  static std::optional<CellRecord> fromJsonLine(std::string_view line);
  static std::optional<CellRecord> fromJson(const class JsonValue& v);
};

/// Everything the runner hands a cell for one execution: the derived RNG
/// seed plus the campaign-wide settings (snapshot options, shard threads,
/// fault plan, instrumentation) the cell applies to its ScenarioSpec. A
/// default-constructed context (seed only) reproduces the cell standalone.
struct CellContext {
  std::uint64_t seed = 0;
  /// Warm-state cache and checkpoint options; cells that cannot snapshot
  /// (PARSEC request/reply cells) run without them, with the same results.
  snapshot::SnapshotOptions snap;
  /// Sharded-engine threads per cell (ScenarioSpec::withThreads, >= 1).
  /// Orthogonal to the runner's --jobs and invisible in the records:
  /// results are byte-identical for every value.
  int shardThreads = 1;
  /// Campaign-wide fault plan (rair_campaign --faults): attached to every
  /// cell that does not already define its own plan. Part of each cell's
  /// scenario identity, so faulted records never alias fault-free ones in
  /// snapshot caches.
  fault::FaultPlan faults;
  /// Instrumentation of the cell's run. The default (counters level, no
  /// sink prefix) keeps records byte-identical to uninstrumented runs; the
  /// runner gives each cell its own sink prefix.
  metrics::MetricsOptions metrics;

  /// Applies this context to a spec (seed, snapshot options, threads,
  /// metrics, and the fault plan unless the spec has its own).
  ScenarioSpec& applyTo(ScenarioSpec& spec) const {
    spec.withSeed(seed).withSnapshot(snap).withThreads(shardThreads)
        .withMetrics(metrics);
    if (!faults.empty() && spec.faults.empty()) spec.withFaults(faults);
    return spec;
  }
};

/// One simulation cell of a campaign grid.
struct CampaignCell {
  std::string key;
  std::vector<std::pair<std::string, std::string>> labels;
  /// Runs the cell's simulation under the given context. Must be pure (no
  /// shared mutable state): cells execute concurrently.
  std::function<ScenarioResult(const CellContext&)> run;
};

/// Read-only index over completed records, keyed by cell key; what table
/// renderers consume.
class CellLookup {
 public:
  void insert(const CellRecord& record);
  const CellRecord* find(const std::string& key) const;
  /// RAIR_CHECKs that the key is present.
  const CellRecord& at(const std::string& key) const;
  std::size_t size() const { return byKey_.size(); }

 private:
  std::map<std::string, const CellRecord*> byKey_;
};

/// A declarative grid of independent simulation cells.
struct CampaignSpec {
  std::string name;
  std::uint64_t campaignSeed = 1;
  std::vector<CampaignCell> cells;
  /// Optional paper-style table rendering over the completed records.
  std::function<std::string(const CellLookup&)> renderTables;

  /// Appends a cell, enforcing key uniqueness.
  void add(CampaignCell cell);
};

/// Builds the structured record for a freshly executed cell.
CellRecord makeCellRecord(const CampaignSpec& spec, const CampaignCell& cell,
                          std::uint64_t seed, const ScenarioResult& result,
                          double wallMs);

}  // namespace rair::campaign

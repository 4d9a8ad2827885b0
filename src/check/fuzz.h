// Property-based fuzzing of the simulator under the oracle (src/check/).
//
// Each case seed deterministically expands into a small random scenario —
// mesh size, region grid, VC layout and depth, link latency, per-app loads
// deliberately pushed past saturation, optional adversarial flooder — that
// runs to *complete drain* with the oracle armed in collecting mode:
// sources are gated off after a cutoff cycle, then every in-flight packet
// must reach its destination, which turns flit conservation into an
// end-to-end property instead of a sampled one.
//
// One case seed in four also runs a PARSEC request/reply twin on the same
// geometry. Every case is assembled by assembleScenario, as every campaign
// cell is; the harness steps it to quiescence itself.
//
// A failing case reports its seed (sufficient to regenerate it bit-exactly)
// and is shrunk by re-running mutated variants that keep failing: fewer
// cycles, no flooder, one message class, minimal VCs, unit link latency,
// fewer regions.
//
// The harness can also turn on deliberate fault injection (one credit
// dropped on a random link via Router::debugDropCredit) to prove the oracle
// actually catches corruption — the self-test mode of tools/rair_fuzz.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "fault/plan.h"
#include "link/link_layer.h"
#include "sim/scenario.h"
#include "sim/scheme.h"
#include "trace/parsec.h"
#include "traffic/generator.h"

namespace rair::check {

/// Fully-expanded parameters of one fuzz case. Value type so the shrinker
/// can mutate copies freely.
struct FuzzCase {
  int meshW = 4;
  int meshH = 4;
  int regionsX = 2;  ///< region block grid (apps = regionsX * regionsY)
  int regionsY = 2;
  int numClasses = 1;
  int vcsPerClass = 3;
  int globalVcsPerClass = -1;
  int vcDepth = 4;
  bool atomicVcs = true;
  Cycle linkLatency = 1;
  /// Link layer every channel is built with. Retx cases pair with
  /// corruption-burst fault plans (generateFaultPlan switches families).
  LinkLayerKind linkLayer = LinkLayerKind::Ideal;
  Cycle sourceCycles = 600;  ///< injection window; sources gate off after
  double adversarialRate = 0.0;
  std::vector<AppTrafficSpec> apps;
  /// PARSEC twin only: one request/reply benchmark per region, replacing
  /// `apps` (ScenarioSpec::parsecApps; numClasses is then 2).
  std::vector<ParsecBenchmark> parsecApps;
  std::uint64_t simSeed = 1;  ///< seed of the traffic RNGs
  /// Fault plan applied during the run (empty = fault-free). Filled by the
  /// harness in fault-plan mode; part of the case so the shrinker can
  /// reduce the fault dimension independently.
  fault::FaultPlan faults;

  /// One-line parameter summary for failure reports.
  std::string describe() const;
};

/// Deterministically expands `caseSeed` into a case; the whole scenario is
/// reproducible from this one value.
FuzzCase generateCase(std::uint64_t caseSeed);

/// The PARSEC request/reply twin of `c` when `caseSeed` has one (one seed
/// in four): `c` with one ParsecBenchmark per region drawn from a stream
/// derived from the seed, on two message classes. Nothing is drawn from
/// the case's own stream, so the synthetic case is unchanged.
std::optional<FuzzCase> parsecTwin(std::uint64_t caseSeed, const FuzzCase& c);

/// Deterministically derives a random fault plan for `c` from the same
/// case seed. Ideal-link cases get link outages (some permanent, possibly
/// partitioning), paired port stalls and injection freezes (always
/// released, so the network can drain), and small credit losses on
/// adaptive VCs (escape VCs keep Duato's liveness argument intact). Retx
/// cases swap the outages for corruption bursts — every corrupt flit is
/// recovered by retransmission, so the plans stay liveness-safe.
fault::FaultPlan generateFaultPlan(std::uint64_t caseSeed, const FuzzCase& c);

struct FuzzOptions {
  std::uint64_t seed = 1;  ///< base seed; case i uses splitmix(seed, i)
  int scenarios = 100;
  /// Scheme matrix every case runs under; empty selects
  /// defaultFuzzSchemes() (RO_RR + RA_RAIR).
  std::vector<SchemeSpec> schemes;
  Cycle period = 1;  ///< oracle structural/census scan cadence
  Cycle deadlockPeriod = 64;
  /// Starvation watchdog bound on in-network age. Generous relative to the
  /// tiny meshes fuzzed here: anything beyond it is a livelock, not load.
  Cycle maxInNetworkAge = 20'000;
  /// Cycles after the injection cutoff before failing to drain is itself a
  /// violation (lost or stuck traffic).
  Cycle drainBudget = 60'000;
  /// Self-test: inject one fault per case — alternating (by case seed)
  /// between dropping a credit and corrupting a metrics counter cell.
  bool injectFault = false;
  /// Attach a random fault plan (generateFaultPlan) to every case and run
  /// it under a fault-aware oracle. Unlike injectFault (deliberate
  /// corruption the oracle must catch), fault-plan runs must stay
  /// violation-free: faults degrade the network, never corrupt it, and
  /// every undelivered packet must land in the droppedByFault bucket.
  bool faultPlan = false;
  bool shrink = true;        ///< shrink failing cases (off in fault mode)
  /// Shard threads every case runs with (SimConfig::shardThreads, >= 1).
  /// Outcomes are byte-identical for every value — fuzzing with threads
  /// > 1 exercises the engine's barriers under the oracle (and TSan in CI).
  int shardThreads = 1;
  /// Link layer every generated case is built with (FuzzCase::linkLayer).
  /// With Retx plus faultPlan, plans become corruption bursts.
  LinkLayerKind linkLayer = LinkLayerKind::Ideal;
};

/// The scenario case `c` runs as under `scheme`: no warm-up, sources
/// gated off after `c.sourceCycles`, `opts.drainBudget` cycles to drain,
/// on `opts.shardThreads` threads. `mesh` and `regions` are the case's
/// shape (c.meshW x c.meshH, blockGrid(regionsX, regionsY)) and must
/// outlive the spec.
ScenarioSpec caseSpec(const FuzzCase& c, const Mesh& mesh,
                      const RegionMap& regions, const SchemeSpec& scheme,
                      const FuzzOptions& opts);

struct FuzzCaseResult {
  std::uint64_t caseSeed = 0;
  /// The case that ran: the seed's synthetic case or its PARSEC twin,
  /// with its fault plan.
  FuzzCase fuzzCase;
  std::string scheme;
  bool drained = false;
  bool faultInjected = false;  ///< a fault was actually injected
  /// Fault-mode only: which corruption model this case used — "credit"
  /// (dropped credit) or "counter" (corrupted metrics counter cell).
  std::string faultKind;
  OracleReport report;
  /// Fault-plan mode: packets removed into the accounted drop bucket.
  std::uint64_t droppedByFault = 0;
  /// Retx-layer runs: link-layer fault totals at drain (0 on ideal links).
  std::uint64_t corruptedFlits = 0;
  std::uint64_t retransmittedFlits = 0;
  FuzzCase shrunk;  ///< smallest still-failing variant (== original params
                    ///< when shrinking is off or never reduced)
  bool wasShrunk = false;

  /// A case fails when the oracle saw a violation or traffic never
  /// drained. In fault-injection mode a *passing* self-test is a case that
  /// fails here (the corruption was caught).
  bool failed() const { return !report.ok() || !drained; }
};

struct FuzzSummary {
  std::uint64_t baseSeed = 0;
  int casesRun = 0;  ///< case x scheme executions
  int failures = 0;
  /// Fault-mode only: injections the oracle missed (must stay 0).
  int faultsMissed = 0;
  /// Fault-mode only: cases where no credit could be dropped (idle net).
  int faultsSkipped = 0;
  /// Retx-layer runs: totals over all executions. Deterministic — a
  /// fixed (seed, scenarios, schemes) sweep reproduces these exactly,
  /// under any shard-thread count.
  std::uint64_t corruptedTotal = 0;
  std::uint64_t retransmittedTotal = 0;
  std::vector<FuzzCaseResult> failed;  ///< capped at 32 entries
};

/// Per-execution progress callback (index over case x scheme runs).
using FuzzProgress = std::function<void(int index, const FuzzCaseResult&)>;

/// Runs the full campaign: `scenarios` generated cases and their PARSEC
/// twins, each under every scheme of the matrix.
FuzzSummary runFuzz(const FuzzOptions& opts, const FuzzProgress& progress = {});

/// Reruns one case seed under the full scheme matrix (the repro path):
/// the synthetic case first, then its PARSEC twin if the seed has one.
std::vector<FuzzCaseResult> runFuzzSeed(std::uint64_t caseSeed,
                                        const FuzzOptions& opts);

/// The default scheme matrix: RO_RR and RA_RAIR on local-adaptive routing.
std::vector<SchemeSpec> defaultFuzzSchemes();

/// Wider matrix for exhaustive runs: adds XY routing, RO_Rank and RA_DBAR.
std::vector<SchemeSpec> allFuzzSchemes();

}  // namespace rair::check

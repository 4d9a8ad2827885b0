// The simulation oracle: a machine-checked safety net over the router
// pipeline and network state.
//
// The simulator is a measurement instrument; a silently-corrupted router
// state produces wrong latency numbers, not a crash. The oracle is a pure
// observer that re-derives, from first principles, the invariants the
// paper's correctness claims rest on, and compares them against the live
// network every cycle (or every `period` cycles):
//
//   1. Flit conservation — every flit found anywhere in the network
//      belongs to a live ledger packet, matches its packet's metadata,
//      appears at most once, and the in-network flits of a packet always
//      form a contiguous, monotonically advancing seq window (wormhole
//      ordering: head, bodies, tail, never reordered or duplicated).
//      A live injected packet with no flits anywhere is a lost packet.
//   2. Credit/buffer consistency — for every (link, VC):
//      upstream credits + flits in flight + credits in flight +
//      downstream buffer occupancy == VC depth, exactly. Buffers never
//      exceed depth, credit counters never leave [0, depth].
//   3. VC state-machine legality — input VC states agree with buffer
//      contents and the output-VC ownership bijection; the incremental
//      occupancy/free-VC/pipeline-state counters and bitmasks of the
//      hot path agree with a full recomputation; allocated output VCs
//      keep their owner until freed; with period == 1, state transitions
//      follow IDLE -> ROUTING -> WAITING_VA -> ACTIVE -> IDLE.
//   4. Deadlock detection — a periodic channel-wait-graph scan over
//      definitely-blocked VCs (Active, non-empty, zero credits); any
//      cycle is a genuine credit deadlock, which Duato escape VCs must
//      make impossible.
//   5. Starvation watchdog — no injected packet may stay in the network
//      beyond a configurable age bound; this is the observable form of
//      DPA's negative-feedback starvation-freedom guarantee.
//
// The oracle never mutates simulation state and consumes no randomness, so
// an armed run is bit-identical to an unarmed one. Configure with
// -DRAIR_CHECKS=ON to arm it automatically inside every runScenario();
// with the option off no oracle code is reachable from the hot path.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/plan.h"
#include "packet/pool.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace rair::check {

struct OracleOptions {
  /// Cadence of the structural + census scans; 1 = every cycle (fuzzing),
  /// larger amortizes the scan for always-on use. The invariants checked
  /// are persistent (a corruption stays visible), so a coarser period
  /// delays detection but does not lose it — except the exact transition
  /// check, which needs consecutive snapshots and only runs at period 1.
  Cycle period = 1;
  /// Cadence of the channel-wait-graph deadlock scan.
  Cycle deadlockPeriod = 64;
  /// Maximum cycles a packet may spend in the network (injection to
  /// delivery) before the starvation watchdog fails. 0 disables it.
  Cycle maxInNetworkAge = 0;
  /// Stop recording after this many violations (the report notes the
  /// truncation). The first violation is what matters for a repro.
  std::size_t maxViolations = 16;
  /// Abort the process on the first violation (the armed-simulation
  /// contract: fail loudly, like RAIR_CHECK). When false, violations are
  /// collected for the caller — the fuzz driver's mode.
  bool failFast = false;

  /// Defaults for the always-on RAIR_CHECKS build: amortized scans, hard
  /// failure. The age watchdog stays off — legitimate saturation runs
  /// have no universal age bound; the fuzz harness sets one per scenario.
  static OracleOptions armed() {
    OracleOptions o;
    o.period = 16;
    o.deadlockPeriod = 256;
    o.failFast = true;
    return o;
  }
};

struct OracleViolation {
  Cycle cycle = 0;
  std::string what;
};

struct OracleReport {
  std::vector<OracleViolation> violations;
  bool truncated = false;        ///< hit maxViolations; more were suppressed
  std::uint64_t scans = 0;        ///< structural + census scans performed
  std::uint64_t deadlockScans = 0;
  bool ok() const { return violations.empty(); }
  /// First violation (or "ok") as a one-line summary.
  std::string summary() const;
};

/// Pure observer over one Network + packet ledger. Drive it either through
/// Simulator::observers().attach() (the RAIR_CHECKS auto-arm path) or by
/// calling onCycleEnd() manually after each ShardEngine::step().
class NetworkOracle final : public SimObserver {
 public:
  NetworkOracle(const Network& net, const PacketPool& ledger,
                OracleOptions options);

  // SimObserver:
  void onCycleEnd(Cycle now) override;
  void onDelivery(const Packet& p) override;

  /// End-of-run checks: one final full scan, plus ledger-vs-network
  /// agreement (a drained ledger requires no flit or VC state left in a
  /// router, NIC or link; credits still returning are allowed).
  void finish(Cycle now);

  /// Cross-validates an external delivery census (the metrics registry's
  /// totals) against the oracle's own independent counts, taken in
  /// onDelivery. Any mismatch — e.g. a corrupted counter cell — is
  /// reported as a violation. Plain integers, so callers need no metrics
  /// dependency.
  void crossValidateTotals(Cycle now, std::uint64_t deliveredPackets,
                           std::uint64_t deliveredFlits);

  const OracleReport& report() const { return report_; }

  /// Forces a full scan now regardless of cadence (tests).
  void scanNow(Cycle now);

  /// Makes the oracle fault-aware: credits deliberately destroyed by
  /// CreditLoss events enter the credit-conservation equations, and the
  /// one-state-per-cycle transition/ownership checks are suppressed on the
  /// exact cycle a topology mutation (purge/reroute) rewired VCs
  /// out-of-band. Every other invariant keeps running unmodified — faults
  /// must degrade the network, never corrupt it. Pass nullptr to detach.
  void attachFaults(const fault::FaultView* faults) { faults_ = faults; }

 private:
  struct SeqWindow {
    std::uint16_t minSeq = 0;
    std::uint16_t maxSeq = 0;
  };
  struct CensusEntry {
    std::uint64_t seqMask = 0;
    int count = 0;
    std::uint16_t pktFlits = 1;
  };

  void violation(Cycle now, std::string what);

  bool holdsTraffic() const;
  void structuralScan(Cycle now);
  void scanRouter(Cycle now, NodeId n);
  void scanNic(Cycle now, NodeId n);
  void creditEquations(Cycle now, NodeId n);
  void censusScan(Cycle now);
  void deadlockScan(Cycle now);
  void starvationScan(Cycle now);

  const Network* net_;
  const PacketPool* ledger_;
  OracleOptions opt_;
  OracleReport report_;
  const fault::FaultView* faults_ = nullptr;

  // Census scratch + persistent per-packet seq windows (pruned at
  // delivery and lazily when a packet is no longer live).
  std::unordered_map<PacketId, CensusEntry> census_;
  std::unordered_map<PacketId, SeqWindow> windows_;
  std::unordered_set<PacketId> streaming_;  ///< packets mid-injection at a NIC
  std::unordered_set<PacketId> reportedStarved_;

  // Independent delivery census for crossValidateTotals().
  std::uint64_t deliveredPackets_ = 0;
  std::uint64_t deliveredFlits_ = 0;

  // Previous-scan snapshots for transition/ownership checks. Only
  // meaningful when scans run on consecutive cycles (period 1); the
  // prevCycle_ guard makes sparse or repeated scans skip the check.
  bool havePrev_ = false;
  Cycle prevCycle_ = 0;
  std::vector<std::uint8_t> prevState_;  ///< input VC states, flattened
  std::vector<std::int16_t> prevOwner_;  ///< output VC owner flat id; -1 free
};

}  // namespace rair::check

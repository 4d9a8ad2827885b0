// The simulation driver: owns the network, the packet ledger and the
// statistics, and runs the paper's measurement protocol (Sec. V.A): warm
// up, measure packets created during the measurement window, then keep the
// network running ("drain") until every measured packet is delivered.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string_view>
#include <vector>

#include "packet/pool.h"
#include "policy/policy.h"
#include "region/region_map.h"
#include "sim/network.h"
#include "sim/nic.h"
#include "sim/shard.h"
#include "stats/stats.h"
#include "traffic/source.h"

namespace rair::snapshot {
class Writer;
class Reader;
}  // namespace rair::snapshot

namespace rair {

struct SimConfig {
  NetworkConfig net;
  RoutingKind routing = RoutingKind::LocalAdaptive;
  Cycle warmupCycles = 10'000;    ///< paper: 10K warmup
  Cycle measureCycles = 100'000;  ///< paper: 100K measured
  Cycle drainLimit = 400'000;     ///< hard stop for the drain phase
  /// Abort if no flit moves and nothing is delivered for this many cycles
  /// while packets are in flight (deadlock/livelock tripwire).
  Cycle progressTimeout = 50'000;
  /// Shards/worker threads of the deterministic sharded cycle engine
  /// (sim/shard.h), n >= 1; 1 steps on the calling thread alone. Results,
  /// observer sequences and snapshot bytes are byte-identical for every
  /// value. Excluded from scenario snapshot keys — checkpoints are
  /// thread-count-agnostic.
  int shardThreads = 1;
};

/// How a run ended. Callers that must distinguish a clean drain from a
/// tripwire stop (e.g. the campaign engine's structured records) read this
/// instead of inferring from `fullyDrained` + `cyclesRun`.
enum class Termination : std::uint8_t {
  Drained,          ///< every measured packet delivered before the limit
  DrainLimit,       ///< drain-limit hard stop with measured packets in flight
  ProgressTimeout,  ///< deadlock/livelock tripwire: no flit moved and
                    ///< nothing was delivered for `progressTimeout` cycles
  AboveKnee,        ///< a KneeVerdict proved the APL exceeds its knee
  Abandoned,        ///< a KneeVerdict's caller no longer needed the run
};

/// Stable lowercase name ("drained" / "drain_limit" / "progress_timeout" /
/// "above_knee" / "abandoned"), used in campaign JSON records.
const char* terminationName(Termination t);

/// Inverse of terminationName; nullopt for unknown names.
std::optional<Termination> terminationFromName(std::string_view name);

/// Passive observer of the simulation loop — the attachment point of the
/// simulation oracle (src/check/), the metrics recorder and the snapshot
/// saver (snapshot/state_file.h). Every callback defaults to a no-op;
/// implementations override what they need and must not mutate
/// simulation state (an observed run must stay bit-identical to an
/// unobserved one).
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// Cycle `now` is about to run: fired at the top of stepCycle(), before
  /// deferred injections and source ticks — the state capture point the
  /// snapshot saver uses.
  virtual void onCycleBegin(Cycle now) { (void)now; }
  /// The network finished advancing cycle `now` (all pipeline phases and
  /// congestion propagation done).
  virtual void onCycleEnd(Cycle now) { (void)now; }
  /// Packet `p` was delivered (already released from the ledger; `p` is a
  /// copy with ejectCycle/hops filled in).
  virtual void onDelivery(const Packet& p) { (void)p; }
};

/// The simulator's dynamic observer list: attach/detach in any order, no
/// slot-count ceiling. Observers fire in attachment order; detaching
/// preserves the relative order of the rest. Attachment is not part of
/// simulation state (never snapshotted): a restored run re-attaches its
/// own observers.
class ObserverSet {
 public:
  /// Appends `obs` (must be non-null and not currently attached).
  void attach(SimObserver* obs) {
    RAIR_CHECK_MSG(obs != nullptr, "ObserverSet::attach(nullptr)");
    RAIR_CHECK_MSG(!attached(obs), "observer attached twice");
    observers_.push_back(obs);
  }
  /// Removes `obs`, keeping the order of the others; false when absent.
  bool detach(const SimObserver* obs) {
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      if (observers_[i] == obs) {
        observers_.erase(observers_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  void clear() { observers_.clear(); }
  bool attached(const SimObserver* obs) const {
    for (const SimObserver* o : observers_)
      if (o == obs) return true;
    return false;
  }
  bool empty() const { return observers_.empty(); }
  std::size_t size() const { return observers_.size(); }

  void notifyCycleBegin(Cycle now) const {
    for (SimObserver* o : observers_) o->onCycleBegin(now);
  }
  void notifyCycleEnd(Cycle now) const {
    for (SimObserver* o : observers_) o->onCycleEnd(now);
  }
  void notifyDelivery(const Packet& p) const {
    for (SimObserver* o : observers_) o->onDelivery(p);
  }

 private:
  std::vector<SimObserver*> observers_;
};

/// Saturation calibration's stop condition (sim/saturation.cpp). Once the
/// measurement window has closed, every measured packet exists, so for
/// each app `a`
///
///   LB(a) = (sum of delivered measured latencies of a
///            + sum over a's in-flight measured packets of (now - create))
///           / (number of measured packets of a)
///
/// is a lower bound on a's final APL: every in-flight packet is delivered
/// at `now` or later. The integer sums are exact in double and rounding is
/// monotone, so the mean of LB over `apps` is a lower bound on the mean of
/// the final per-app APLs computed the same way. When it exceeds `knee`
/// (strict `>`, the finder's comparison) the full run would report an APL
/// above the knee or fail to drain: either way the verdict is "saturated".
/// Requires a fault-free run: a packet dropped by a fault leaves the final
/// APL's denominator, which would void the bound.
struct KneeVerdict {
  double knee = 0.0;
  std::vector<AppId> apps;
  /// Set by a speculative search once it no longer needs this run; the run
  /// then stops at its next check. Null = never abandoned.
  const std::atomic<bool>* abandon = nullptr;
};

struct RunResult {
  StatsCollector stats{1};
  Cycle cyclesRun = 0;
  bool fullyDrained = false;
  Termination termination = Termination::DrainLimit;
  std::uint64_t packetsCreated = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t flitHops = 0;  ///< switch traversals summed over routers

  /// Offered vs. accepted flit throughput over the measurement window
  /// (flits per cycle per node).
  double deliveredFlitRate = 0.0;
};

class Simulator final : public InjectionSink, private NicEvents {
 public:
  /// The fault subsystem's attachment surface beyond plain observation
  /// (src/fault/ implements it; the simulator core stays fault-agnostic):
  /// reachability gating of new packets, and an extra snapshot section for
  /// pending fault state. All methods are unused while no hook is set, so
  /// fault-free simulations carry zero overhead and identical bytes.
  class FaultHook {
   public:
    virtual ~FaultHook() = default;
    /// Whether a packet created now at `src` can ever reach `dst` on the
    /// (possibly degraded) topology.
    virtual bool deliverable(NodeId src, NodeId dst) const = 0;
    /// Whether the hook currently holds state the snapshot must carry
    /// (an event cursor, run accounting, lost credits).
    virtual bool snapshotRelevant() const = 0;
    virtual void save(snapshot::Writer& w) const = 0;
    virtual void restore(snapshot::Reader& r) = 0;
  };

  /// @param numApps size of the per-app stats table; must cover every
  ///        AppId the sources use (which may exceed regions.numApps(),
  ///        e.g. the adversarial flooder of Fig. 17).
  Simulator(const Mesh& mesh, const RegionMap& regions, SimConfig config,
            const ArbiterPolicy& policy, int numApps);

  /// Adds a generator ticked every cycle until the measurement window ends
  /// (sources keep running during drain so measured stragglers experience
  /// realistic contention).
  void addSource(std::unique_ptr<TrafficSource> src);

  /// Optional hook fired on every delivery — used by the trace substrate
  /// to synthesize replies to requests. It runs on the coordinator during
  /// the engine's staged replay, after the cycle's network step, so a
  /// hooked run behaves the same at every thread count. The hook is not
  /// snapshotted: what it does must depend only on the packet and the
  /// clock, and anything it schedules must go through createPacket() or
  /// injectAt(), whose effects the snapshot carries. A restored run
  /// installs the same hook again.
  using DeliveryHook = std::function<void(const Packet&, InjectionSink&)>;
  void setDeliveryHook(DeliveryHook hook) { deliveryHook_ = std::move(hook); }

  /// Schedules a packet to be created at a future cycle (e.g. a reply
  /// after a cache-service latency).
  void injectAt(Cycle when, NodeId src, NodeId dst, AppId app, MsgClass cls,
                std::uint16_t numFlits);

  /// Runs warmup + measurement + drain; returns the collected results.
  RunResult run();

  /// Arms run()'s early stops, checked every kVerdictEvery cycles: the run
  /// ends, not drained, with Termination::Abandoned once the abandon flag
  /// is set, and, after the measurement window, with Termination::AboveKnee
  /// once the verdict's bound exceeds the knee. Not simulation state: never
  /// snapshotted, never part of scenario keys.
  void setKneeVerdict(std::optional<KneeVerdict> verdict) {
    verdict_ = std::move(verdict);
  }
  static constexpr Cycle kVerdictEvery = 64;

  // --- Incremental driving (benches, allocation tests) -------------------
  /// Opens the measurement windows. run() calls this itself; call it
  /// directly only when driving the simulation with stepCycle().
  void begin();
  /// Advances one cycle: deferred injections, source ticks, network step.
  /// No termination logic — callers own the loop.
  void stepCycle();
  /// Packets currently in flight (created, not yet delivered).
  std::size_t inFlight() const { return ledger_.inFlight(); }
  /// Packets scheduled by injectAt() and not yet created.
  std::size_t pendingInjections() const { return deferred_.size(); }

  // InjectionSink:
  PacketId createPacket(NodeId src, NodeId dst, AppId app, MsgClass cls,
                        std::uint16_t numFlits) override;
  Cycle now() const override { return now_; }

  Network& network() { return *net_; }
  const Network& network() const { return *net_; }

  /// The live-packet ledger (read-only; the oracle audits it against the
  /// flits found in the network).
  const PacketPool& ledger() const { return ledger_; }

  /// The dynamic observer list (oracle, metrics recorder, snapshot
  /// saver, test probes — any number). Observers fire in attachment
  /// order; when the set is empty the per-cycle cost is two empty loops.
  ObserverSet& observers() { return observers_; }
  const ObserverSet& observers() const { return observers_; }

  /// Registers (or clears, with nullptr) the fault subsystem's hook. The
  /// hook outlives the simulator's use of it; exactly one may be set.
  void setFaultHook(FaultHook* hook) { faultHook_ = hook; }

  /// Accounted removal of a live packet by the fault layer: releases the
  /// ledger entry and moves the packet into the droppedByFault bucket so
  /// conservation censuses (`created == delivered + dropped + in flight`)
  /// keep closing. The caller must already have purged every flit of the
  /// packet from the network.
  void faultDropPacket(PacketId id);

  /// Packets/flits removed by fault injection since construction.
  std::uint64_t droppedByFault() const { return droppedByFault_; }
  std::uint64_t droppedFlitsByFault() const { return droppedFlitsByFault_; }

  // --- Snapshot/restore ---------------------------------------------------
  /// Serializes the complete mutable state (and restores it into an
  /// identically constructed simulator: same mesh/regions/config/policy,
  /// same sources added in the same order).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  // NicEvents: the sharded engine's staged replay reports every NIC
  // event into the simulator's ledger.
  void onInjected(PacketId id, Cycle when) override;
  void onDelivered(PacketId id, Cycle when, std::uint16_t hops) override;

  /// Whether the armed verdict's lower bound already exceeds its knee.
  bool provenAboveKnee() const;

  const Mesh* mesh_;
  SimConfig config_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ShardEngine> engine_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  StatsCollector stats_;
  DeliveryHook deliveryHook_;

  PacketPool ledger_{4096};
  struct Deferred {
    Cycle when;
    NodeId src, dst;
    AppId app;
    MsgClass cls;
    std::uint16_t numFlits;
    bool operator>(const Deferred& o) const { return when > o.when; }
  };
  /// priority_queue with its protected container exposed: the snapshot
  /// serializes the heap vector verbatim, so a restored queue pops in the
  /// exact order (including tie order) the saved one would.
  struct DeferredQueue
      : std::priority_queue<Deferred, std::vector<Deferred>,
                            std::greater<>> {
    const std::vector<Deferred>& container() const { return c; }
    std::vector<Deferred>& container() { return c; }
  };
  DeferredQueue deferred_;

  ObserverSet observers_;
  FaultHook* faultHook_ = nullptr;
  std::optional<KneeVerdict> verdict_;
  Cycle now_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t measuredFlitsDelivered_ = 0;
  std::uint64_t droppedByFault_ = 0;
  std::uint64_t droppedFlitsByFault_ = 0;

  // Progress-tripwire bookkeeping. Members (not run() locals) so they are
  // part of the snapshot: a restored run must fire the deadlock tripwire
  // at the same cycle the uninterrupted one would.
  Cycle lastProgress_ = 0;
  std::uint64_t lastDelivered_ = 0;
};

}  // namespace rair

// Deterministic sharded cycle engine: the only way a Simulator advances a
// cycle, with space-partitioned intra-run parallelism over the flattened
// Network.
//
// The network is split into contiguous node ranges (shards), one worker
// thread per shard, and every cycle runs as two barrier-separated fused
// phases (see Network::phaseInjectRoute / phaseTraversePropagate). The
// partition is sound because each phase only ever mutates shard-local
// state: a router's phase methods touch its own buffers plus its own side
// of the attached links, and the two DelayPipes of a cross-shard link
// (flits downstream, credits upstream) are each written by exactly one
// endpoint per phase. The one cross-cutting side effect — NIC lifecycle
// events into the simulator's packet ledger — is staged per shard during
// the NIC phase and replayed on the coordinator in canonical shard order
// (= ascending node order, whatever the partition).
//
// Determinism contract: results, statistics, observer callback sequences
// and snapshot bytes are identical for any shard count and any contiguous
// partition. There is no per-shard RNG to
// split: traffic sources tick on the coordinator before the phases run, so
// the parallel section consumes no random numbers at all. The partition
// itself moves between cycles (rebalance()) as a pure function of router
// activity counters — never of timers — so even the thread/node mapping
// is reproducible run to run.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/network.h"

namespace rair {

/// One staged NIC lifecycle event, replayed by the coordinator after the
/// parallel phases so the simulator observes deliveries in ascending node
/// order at every shard count (the packet pool's free list is
/// order-dependent and snapshot-serialized, so replay order is part of
/// byte-identity).
struct NicEventRecord {
  enum class Kind : std::uint8_t { Injected, Delivered };
  PacketId id;
  Cycle when;
  std::uint16_t hops;  ///< meaningful for Delivered only
  Kind kind;
};

/// Splits nodes 0..cost.size()-1 into `numShards` contiguous ranges of
/// near-equal summed cost. Returns numShards + 1 ascending boundaries
/// (front 0, back cost.size()); shard s covers [b[s], b[s+1]). Integer
/// arithmetic only, so the split is exact and platform-independent.
std::vector<NodeId> splitByCost(const std::vector<std::uint64_t>& cost,
                                int numShards);

/// Cores the calling thread may run on: its CPU affinity mask, capped by
/// the cgroup CPU quota (v2 `cpu.max`, v1 `cpu.cfs_quota_us`) when one is
/// set. Worker threads inherit the affinity of the thread creating them.
int usableCores();

class ShardEngine {
 public:
  /// Partitions `net` into `numShards` contiguous node ranges and rewires
  /// every NIC's event receiver to this engine's per-shard staging. `sink`
  /// receives the replayed events (the Simulator). The destructor rewires
  /// the NICs back to `sink`. Both referents must outlive the engine.
  ShardEngine(Network& net, NicEvents& sink, int numShards);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  int numShards() const { return static_cast<int>(shards_.size()); }

  /// Advances the network one cycle and replays the staged NIC events into
  /// the sink in shard order. Returns the flits the switches moved in
  /// cycle `now`, summed per shard during phase B.
  int step(Cycle now);

  /// Current partition as numShards() + 1 ascending node boundaries.
  std::vector<NodeId> boundaries() const;

  /// Cycles between cost-based rebalances of the shard boundaries.
  static constexpr Cycle kRebalanceInterval = 1024;

  /// Test hook: when non-zero, every this many cycles the partition is
  /// replaced by a pseudo-random one drawn from the cycle number (empty
  /// and one-node shards included) instead of the cost-based split —
  /// proving boundary moves are invisible in results and snapshot bytes.
  static inline Cycle forceRebalanceEveryForTest = 0;

 private:
  /// Per-shard NicEvents receiver: records instead of acting. Only the
  /// shard's own worker writes it during a phase.
  struct Stage final : NicEvents {
    void onInjected(PacketId id, Cycle when) override {
      events.push_back(
          {id, when, 0, NicEventRecord::Kind::Injected});
    }
    void onDelivered(PacketId id, Cycle when, std::uint16_t hops) override {
      events.push_back(
          {id, when, hops, NicEventRecord::Kind::Delivered});
    }
    std::vector<NicEventRecord> events;
  };

  /// Cache-line aligned: each worker writes its own stage vector and moved
  /// count every phase, which must not false-share with a neighbor's.
  struct alignas(64) Shard {
    NodeId begin = 0;
    NodeId end = 0;
    int moved = 0;  ///< flits moved in the shard's range, set in phase B
    Stage stage;
  };

  enum class Phase : std::uint8_t { InjectRoute, TraversePropagate };

  void runShardPhase(Phase p, Shard& s, Cycle now);
  /// Runs `p` on every shard (shard 0 on the calling thread) and returns
  /// once all shards completed — the per-phase barrier.
  void dispatch(Phase p, Cycle now);
  void workerLoop(std::size_t shardIndex);
  /// Whether a waiter should spin before parking: only while every live
  /// shard thread of the process can hold a core of its own.
  bool spinAllowed() const;
  /// Moves the shard boundaries between cycles (cost-based, or the forced
  /// test partition) and rewires the NIC staging of nodes that moved.
  void rebalance(Cycle now);
  void applyBoundaries(const std::vector<NodeId>& bounds);

  Network* net_;
  NicEvents* sink_;
  std::vector<Shard> shards_;
  int usableCores_;
  /// Per-node Router::counters().flitsTraversed at the last rebalance.
  std::vector<std::uint64_t> traversedAtRebalance_;
  Cycle lastRebalance_ = 0;

  // Phase hand-off: the coordinator publishes (phase_, cycle_) and any
  // boundary move with a release store to epoch_; workers run the phase
  // and count down via done_. Both waits spin with a CPU pause for a
  // bounded time while the process's shard threads fit its cores, then
  // park on the atomic (futex).
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> done_{0};
  Phase phase_ = Phase::InjectRoute;
  Cycle cycle_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;  ///< shards 1..N-1
};

}  // namespace rair

#include "sim/shard.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <optional>

#ifdef __linux__
#include <fcntl.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "common/assert.h"

namespace rair {

namespace {

/// How long a waiter spins before parking on a futex. The coordinator's
/// serial gap between cycles (staged replay plus source ticks) is ~5 us
/// on the 16x16 knee, and phase imbalance adds a few us more; 50 us
/// covers both with margin, so a fitting run never pays a futex wake-up
/// (tens of us), while an idle engine stops burning its cores within
/// 50 us.
constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(50);
/// After this much of the budget the spinner also yields its core at
/// every clock check. Short waits stay pure spins; a long one on a core
/// that another process's thread wants (the in-process live-thread count
/// cannot see other processes) hands the core over instead of stalling.
constexpr std::chrono::nanoseconds kPureSpin = std::chrono::microseconds(10);

/// Rebalance cost model: a node costs kNodeCost per cycle for its fixed
/// NIC/router pipeline work plus kFlitCost per flit its switch moved.
/// Measured at one thread on a 4-vCPU VM (Release): an idle 16x16
/// network steps in ~13-15 us per cycle (~55 ns per node-cycle), and the
/// 16x16 knee (70% of its half-mesh saturation, ~200 flit-hops per cycle)
/// in ~99 us, so a flit traversal costs ~0.42 us, about seven idle
/// node-cycles. Weighting flits at 7 instead of 4 made no measurable
/// difference on the 4-shard knee (10 alternating perfbench knee16_t4
/// pairs: median wall-time ratio 0.97, within the run-to-run spread), so
/// the weight stays 4: the busy middle rows still get smaller shards
/// than the edges, which evens out per-shard phase times.
constexpr std::uint64_t kNodeCost = 1;
constexpr std::uint64_t kFlitCost = 4;

/// Shard threads of every multi-shard engine alive in this process
/// (coordinators included). Spinning pays only while each of them can
/// hold a core; beyond that a spinner steals the core its partner needs.
std::atomic<int> gLiveShardThreads{0};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins with a CPU pause until `ready()` holds or kSpinBudget elapses;
/// returns whether `ready()` held.
template <class Ready>
bool spinUntil(Ready ready) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (ready()) return true;
      cpuRelax();
    }
    const auto spun = std::chrono::steady_clock::now() - start;
    if (spun >= kSpinBudget) return ready();
    if (spun >= kPureSpin) std::this_thread::yield();
  }
}

#ifdef __linux__
/// Reads the leading integer of a small text file; nullopt when the file
/// is missing or does not start with one (cgroup v2 writes "max"). Plain
/// read() and from_chars keep the stdio scanf machinery out of the
/// process, which would otherwise cost every sharded run its code pages.
std::optional<long long> readLeadingInt(const char* path, long long* second) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  char buf[64];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  ::close(fd);
  if (n <= 0) return std::nullopt;
  const char* end = buf + n;
  long long v = 0;
  const auto [p, ec] = std::from_chars(buf, end, v);
  if (ec != std::errc()) return std::nullopt;
  if (second != nullptr && p < end) std::from_chars(p + 1, end, *second);
  return v;
}

/// The cgroup CPU quota in whole cores (floor, at least 1), or 0 when the
/// process has none. Read once: quotas do not change under a running
/// simulation, and the file reads would otherwise cost every engine
/// construction.
int cgroupQuotaCores() {
  static const int cores = [] {
    long long period = 0;
    // v2: "<quota> <period>" or "max <period>"; v1: two files, quota -1
    // when unlimited.
    std::optional<long long> quota =
        readLeadingInt("/sys/fs/cgroup/cpu.max", &period);
    if (!quota) {
      quota = readLeadingInt("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", nullptr);
      if (const auto p =
              readLeadingInt("/sys/fs/cgroup/cpu/cpu.cfs_period_us", nullptr))
        period = *p;
    }
    if (!quota || *quota <= 0 || period <= 0) return 0;
    return static_cast<int>(std::max<long long>(1, *quota / period));
  }();
  return cores;
}
#endif

/// splitmix64: the forced test partition's deterministic draw.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The forced test partition for cycle `now`: random cuts, everything in
/// one shard, or one-node shards plus one big shard, chosen by the cycle.
std::vector<NodeId> forcedBoundaries(Cycle now, int numShards,
                                     NodeId numNodes) {
  std::uint64_t h = mix(now);
  const auto S = static_cast<std::size_t>(numShards);
  std::vector<NodeId> b(S + 1, 0);
  b[S] = numNodes;
  const auto big = static_cast<std::size_t>(h % S);
  switch ((h >> 32) % 3) {
    case 0:  // random cuts (coinciding cuts leave empty shards)
      for (std::size_t s = 1; s < S; ++s) {
        h = mix(h);
        b[s] = static_cast<NodeId>(
            h % static_cast<std::uint64_t>(numNodes + 1));
      }
      std::sort(b.begin(), b.end());
      break;
    case 1:  // shard `big` owns every node, the others are empty
      for (std::size_t s = 1; s < S; ++s) b[s] = s <= big ? 0 : numNodes;
      break;
    default:  // one node for every shard but `big`, which takes the rest
      for (std::size_t s = 1; s < S; ++s) {
        const NodeId tail = static_cast<NodeId>(S - s);
        b[s] = s <= big ? static_cast<NodeId>(s) : numNodes - tail;
        b[s] = std::clamp<NodeId>(b[s], b[s - 1], numNodes);
      }
      break;
  }
  return b;
}

}  // namespace

std::vector<NodeId> splitByCost(const std::vector<std::uint64_t>& cost,
                                int numShards) {
  RAIR_CHECK_MSG(numShards >= 1, "splitByCost with no shards");
  const auto S = static_cast<std::uint64_t>(numShards);
  std::uint64_t total = 0;
  for (const std::uint64_t c : cost) total += c;
  std::vector<NodeId> b(static_cast<std::size_t>(numShards) + 1, 0);
  b.back() = static_cast<NodeId>(cost.size());
  // Boundary s sits where the running sum is closest to s/S of the total.
  std::size_t n = 0;
  std::uint64_t prefix = 0;  // sum of cost[0, n)
  for (std::uint64_t s = 1; s < S; ++s) {
    // Compare prefix * S against total * s: exact, no division.
    const std::uint64_t target = total * s;
    while (n < cost.size() && (prefix + cost[n]) * S <= target)
      prefix += cost[n++];
    // Taking node n too overshoots; take it when that lands closer.
    if (n < cost.size() &&
        (prefix + cost[n]) * S - target < target - prefix * S)
      prefix += cost[n++];
    b[static_cast<std::size_t>(s)] = static_cast<NodeId>(n);
  }
  return b;
}

int usableCores() {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) cores = CPU_COUNT(&set);
  if (const int quota = cgroupQuotaCores(); quota > 0)
    cores = std::min(cores, quota);
#endif
  return std::max(1, cores);
}

ShardEngine::ShardEngine(Network& net, NicEvents& sink, int numShards)
    : net_(&net), sink_(&sink), usableCores_(usableCores()) {
  RAIR_CHECK_MSG(numShards >= 1, "ShardEngine with no shards");
  const NodeId numNodes = net.mesh().numNodes();
  shards_.resize(static_cast<std::size_t>(numShards));
  // Until the first rebalance every node costs the same: an even split.
  applyBoundaries(splitByCost(
      std::vector<std::uint64_t>(static_cast<std::size_t>(numNodes), 1),
      numShards));
  traversedAtRebalance_.assign(static_cast<std::size_t>(numNodes), 0);
  for (NodeId n = 0; n < numNodes; ++n)
    traversedAtRebalance_[static_cast<std::size_t>(n)] =
        net_->router(n).counters().flitsTraversed;
  if (numShards > 1) gLiveShardThreads.fetch_add(numShards);
  workers_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ShardEngine::~ShardEngine() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& w : workers_) w.join();
  if (numShards() > 1) gLiveShardThreads.fetch_sub(numShards());
  for (NodeId n = 0; n < net_->mesh().numNodes(); ++n)
    net_->nic(n).setEvents(sink_);
}

std::vector<NodeId> ShardEngine::boundaries() const {
  std::vector<NodeId> b;
  b.reserve(shards_.size() + 1);
  for (const Shard& s : shards_) b.push_back(s.begin);
  b.push_back(shards_.back().end);
  return b;
}

void ShardEngine::applyBoundaries(const std::vector<NodeId>& bounds) {
  RAIR_CHECK(bounds.size() == shards_.size() + 1);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    const NodeId oldBegin = s.begin, oldEnd = s.end;
    s.begin = bounds[i];
    s.end = bounds[i + 1];
    RAIR_CHECK(s.begin <= s.end);
    // A NIC stages at most one injection and one delivery per cycle:
    // growing the stage to that bound here, on the coordinator, keeps the
    // workers from ever allocating (which would open per-thread malloc
    // arenas).
    s.stage.events.reserve(2 * static_cast<std::size_t>(s.end - s.begin));
    for (NodeId n = s.begin; n < s.end; ++n)
      if (n < oldBegin || n >= oldEnd) net_->nic(n).setEvents(&s.stage);
  }
}

void ShardEngine::rebalance(Cycle now) {
  if (forceRebalanceEveryForTest != 0) {
    if (now % forceRebalanceEveryForTest == 0)
      applyBoundaries(forcedBoundaries(now, numShards(),
                                       net_->mesh().numNodes()));
    return;
  }
  if (now % kRebalanceInterval != 0) return;
  const NodeId numNodes = net_->mesh().numNodes();
  std::vector<std::uint64_t> cost(static_cast<std::size_t>(numNodes));
  for (NodeId n = 0; n < numNodes; ++n) {
    const auto i = static_cast<std::size_t>(n);
    const std::uint64_t t = net_->router(n).counters().flitsTraversed;
    // A restore may rewind the counters; count no activity then.
    const std::uint64_t flits =
        t >= traversedAtRebalance_[i] ? t - traversedAtRebalance_[i] : 0;
    traversedAtRebalance_[i] = t;
    cost[i] = kNodeCost * kRebalanceInterval + kFlitCost * flits;
  }
  applyBoundaries(splitByCost(cost, numShards()));
}

void ShardEngine::runShardPhase(Phase p, Shard& s, Cycle now) {
  switch (p) {
    case Phase::InjectRoute:
      net_->phaseInjectRoute(now, s.begin, s.end);
      break;
    case Phase::TraversePropagate:
      s.moved = net_->phaseTraversePropagate(now, s.begin, s.end);
      break;
  }
}

bool ShardEngine::spinAllowed() const {
  return gLiveShardThreads.load(std::memory_order_relaxed) <= usableCores_;
}

void ShardEngine::dispatch(Phase p, Cycle now) {
  phase_ = p;
  cycle_ = now;
  done_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  runShardPhase(p, shards_[0], now);
  const auto target = static_cast<std::uint32_t>(workers_.size());
  const auto allDone = [&] {
    return done_.load(std::memory_order_acquire) == target;
  };
  if (spinAllowed() && spinUntil(allDone)) return;
  for (;;) {
    const std::uint32_t d = done_.load(std::memory_order_acquire);
    if (d == target) return;
    done_.wait(d, std::memory_order_acquire);
  }
}

void ShardEngine::workerLoop(std::size_t shardIndex) {
  std::uint32_t seen = 0;
  const auto published = [&] {
    return epoch_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    if (!(spinAllowed() && spinUntil(published)))
      epoch_.wait(seen, std::memory_order_acquire);
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    runShardPhase(phase_, shards_[shardIndex], cycle_);
    done_.fetch_add(1, std::memory_order_release);
    done_.notify_one();
  }
}

int ShardEngine::step(Cycle now) {
  int moved = 0;
  if (workers_.empty()) {
    // Single shard: same fused-phase schedule, no hand-off machinery.
    net_->phaseInjectRoute(now, shards_[0].begin, shards_[0].end);
    moved = net_->phaseTraversePropagate(now, shards_[0].begin,
                                         shards_[0].end);
  } else {
    rebalance(now);
    dispatch(Phase::InjectRoute, now);
    dispatch(Phase::TraversePropagate, now);
    for (const Shard& s : shards_) moved += s.moved;
  }
  net_->advanceCongestionHistory();
  // Canonical replay: shard order = ascending node order, the same event
  // order for every partition.
  for (Shard& s : shards_) {
    for (const NicEventRecord& e : s.stage.events) {
      if (e.kind == NicEventRecord::Kind::Injected)
        sink_->onInjected(e.id, e.when);
      else
        sink_->onDelivered(e.id, e.when, e.hops);
    }
    s.stage.events.clear();
  }
  return moved;
}

}  // namespace rair

#include "sim/saturation.h"

#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/assert.h"

namespace rair {

namespace {

/// One batch of speculative probes as a decision tree: walking it from
/// node 0, a saturated verdict at node k moves on to bad[k], a drained one
/// to good[k]; -1 ends the walk. parent/viaBad are the reverse edges.
struct ProbeTree {
  std::vector<double> rate;
  std::vector<int> bad, good;
  std::vector<int> parent;
  std::vector<bool> viaBad;

  int add(double r, int from, bool fromBad) {
    const int k = static_cast<int>(rate.size());
    rate.push_back(r);
    bad.push_back(-1);
    good.push_back(-1);
    parent.push_back(from);
    viaBad.push_back(fromBad);
    if (from >= 0) (fromBad ? bad : good)[static_cast<std::size_t>(from)] = k;
    return k;
  }
};

/// Runs every probe of `tree`, one thread each when there are several, and
/// returns the verdicts (apl > knee). When a verdict comes in, every probe
/// it puts off the walk's path is abandoned; their verdicts are never
/// read. A probe's exception is rethrown once every thread has joined.
std::vector<char> runTree(const ProbeTree& tree, const KneeProbe& probe,
                          double knee) {
  const std::size_t n = tree.rate.size();
  std::vector<char> verdict(n, 0);
  if (n == 1) {
    verdict[0] = probe(tree.rate[0], knee, nullptr) > knee;
    return verdict;
  }
  std::vector<std::atomic<bool>> abandon(n);
  std::vector<std::exception_ptr> errors(n);
  std::mutex mu;  // guards verdict and decided
  std::vector<char> decided(n, 0);
  const auto offPath = [&](std::size_t k) {
    for (int c = static_cast<int>(k), a = tree.parent[k]; a >= 0;
         c = a, a = tree.parent[static_cast<std::size_t>(a)]) {
      const auto ai = static_cast<std::size_t>(a);
      if (decided[ai] &&
          verdict[ai] != tree.viaBad[static_cast<std::size_t>(c)])
        return true;
    }
    return false;
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    for (std::size_t k = 0; k < n; ++k) {
      threads.emplace_back([&, k] {
        try {
          const bool bad = probe(tree.rate[k], knee, &abandon[k]) > knee;
          const std::lock_guard<std::mutex> lock(mu);
          verdict[k] = bad;
          decided[k] = 1;
          for (std::size_t j = 0; j < n; ++j)
            if (!decided[j] && offPath(j))
              abandon[j].store(true, std::memory_order_relaxed);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
#if defined(__GLIBC__)
  // The probes just freed their state at once, saturated backlogs
  // included: hand the free pages back so the batch's high-water mark
  // does not stay resident for the rest of the process.
  malloc_trim(0);
#endif
  return verdict;
}

}  // namespace

double findSaturationRate(const KneeProbe& probe, int width,
                          const SaturationOptions& opts) {
  RAIR_CHECK(width >= 1);
  const double zeroLoad = probe(opts.zeroLoadRate, std::nullopt, nullptr);
  RAIR_CHECK_MSG(zeroLoad > 0.0, "zero-load latency measurement failed");
  const double knee = opts.kneeFactor * zeroLoad;

  double lastGood = opts.zeroLoadRate;
  double firstBad = -1.0;
  const auto walk = [&](const ProbeTree& tree) {
    const std::vector<char> verdict = runTree(tree, probe, knee);
    for (int k = 0; k >= 0;) {
      const auto ki = static_cast<std::size_t>(k);
      if (verdict[ki]) {
        firstBad = tree.rate[ki];
        k = tree.bad[ki];
      } else {
        lastGood = tree.rate[ki];
        k = tree.good[ki];
      }
    }
  };

  // Geometric scan for the first saturated rate, `width` rates at a time:
  // a chain in which a saturated rate ends the walk.
  double rate = opts.startRate;
  while (firstBad < 0.0 && rate <= opts.maxRate) {
    ProbeTree chain;
    for (int prev = -1; static_cast<int>(chain.rate.size()) < width &&
                        rate <= opts.maxRate;
         rate *= opts.growth)
      prev = chain.add(rate, prev, false);
    walk(chain);
  }
  if (firstBad < 0.0) return opts.maxRate;  // never saturated within bounds

  // Bisect the knee, `depth` halvings per batch: node k of the
  // breadth-first tree brackets [lo[k], hi[k]], and its children are the
  // brackets after a saturated (2k + 1) or drained (2k + 2) midpoint.
  for (int left = opts.bisectIters; left > 0;) {
    int depth = 1;
    while (depth < left && (2 << depth) - 1 <= width) ++depth;
    const std::size_t nodes = (std::size_t{1} << depth) - 1;
    std::vector<double> lo(nodes), hi(nodes);
    lo[0] = lastGood;
    hi[0] = firstBad;
    ProbeTree tree;
    for (std::size_t k = 0; k < nodes; ++k) {
      const double mid = 0.5 * (lo[k] + hi[k]);
      tree.add(mid, k == 0 ? -1 : static_cast<int>((k - 1) / 2), k % 2 == 1);
      if (2 * k + 2 < nodes) {
        lo[2 * k + 1] = lo[k];
        hi[2 * k + 1] = mid;
        lo[2 * k + 2] = mid;
        hi[2 * k + 2] = hi[k];
      }
    }
    walk(tree);
    left -= depth;
  }
  return 0.5 * (lastGood + firstBad);
}

double findSaturationRate(const std::function<double(double)>& aplAtRate,
                          const SaturationOptions& opts) {
  return findSaturationRate(
      [&](double rate, std::optional<double>, const std::atomic<bool>*) {
        return aplAtRate(rate);
      },
      1, opts);
}

double appSaturationRate(const Mesh& mesh, const RegionMap& regions,
                         AppTrafficSpec app, const SaturationOptions& opts,
                         RoutingKind routing) {
  const auto probe = [&](double rate, std::optional<double> knee,
                         const std::atomic<bool>* abandon) {
    SimConfig cfg;
    cfg.warmupCycles = opts.warmupCycles;
    cfg.measureCycles = opts.measureCycles;
    cfg.drainLimit = opts.drainLimit;
    AppTrafficSpec solo = app;
    solo.injectionRate = rate;
    SchemeSpec scheme = schemeRoRr(routing);
    // Index the stats table by the app's real id (regions beyond it idle).
    std::vector<AppTrafficSpec> apps(static_cast<size_t>(app.app) + 1);
    for (AppId a = 0; a <= app.app; ++a) {
      apps[static_cast<size_t>(a)].app = a;
      apps[static_cast<size_t>(a)].injectionRate = 0.0;
    }
    apps[static_cast<size_t>(app.app)] = solo;
    ScenarioSpec spec = ScenarioSpec(mesh, regions)
                            .withConfig(cfg)
                            .withScheme(scheme)
                            .withApps(std::move(apps))
                            .withWarmCache(opts.warmCacheDir);
    if (knee) spec.withKneeVerdict({*knee, {app.app}, abandon});
    const auto res = runScenario(spec);
    if (!res.run.fullyDrained) {
      // Could not drain, or proven above the knee: past saturation.
      return std::numeric_limits<double>::infinity();
    }
    return res.appApl[static_cast<size_t>(app.app)];
  };
  return findSaturationRate(probe, usableCores(), opts);
}

}  // namespace rair

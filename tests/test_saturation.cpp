#include "sim/saturation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "campaign/builtin.h"
#include "scenarios/parsec_scenario.h"
#include "sim/shard.h"
#include "snapshot/state_file.h"

namespace rair {
namespace {

TEST(Saturation, FindsKneeOfAnalyticCurve) {
  // Synthetic M/M/1-style latency curve saturating at rate 0.4:
  // apl(r) = L0 / (1 - r/0.4), diverging at the knee.
  const double L0 = 20.0;
  auto apl = [&](double r) {
    if (r >= 0.4) return 1e9;
    return L0 / (1.0 - r / 0.4);
  };
  SaturationOptions opts;
  const double sat = findSaturationRate(apl, opts);
  // APL crosses 4x zero-load at r = 0.3 (1/(1-r/0.4) = 4 -> r = 0.3).
  EXPECT_NEAR(sat, 0.3, 0.02);
}

TEST(Saturation, NeverSaturatingReturnsMaxRate) {
  auto apl = [](double) { return 10.0; };
  SaturationOptions opts;
  opts.maxRate = 0.8;
  EXPECT_DOUBLE_EQ(findSaturationRate(apl, opts), 0.8);
}

TEST(Saturation, KneeFactorShiftsResult) {
  auto apl = [](double r) { return 10.0 / std::max(1e-9, 1.0 - r); };
  SaturationOptions loose;
  loose.kneeFactor = 8.0;
  SaturationOptions tight;
  tight.kneeFactor = 2.0;
  EXPECT_GT(findSaturationRate(apl, loose), findSaturationRate(apl, tight));
}

TEST(Saturation, KneeBelowStartRateBisectsLowerInterval) {
  // The knee sits below the geometric scan's start rate: the very first
  // probe is already saturated, so bisection must work the interval
  // [zeroLoadRate, startRate] instead of running off a bogus bracket.
  auto apl = [](double r) { return r < 0.01 ? 10.0 : 1e9; };
  SaturationOptions opts;  // zeroLoadRate 0.005, startRate 0.02
  const double sat = findSaturationRate(apl, opts);
  EXPECT_GE(sat, opts.zeroLoadRate);
  EXPECT_LE(sat, opts.startRate);
  EXPECT_NEAR(sat, 0.01, 0.002);
}

TEST(Saturation, KneeInsideLastGeometricGapReportsMaxRate) {
  // With growth 1.3 the scan's last probe below maxRate = 1.0 is ~0.787;
  // a knee hiding in the unprobed (0.787, 1.0] tail is indistinguishable
  // from never-saturating, so the finder reports maxRate — and must never
  // exceed the link-rate bound while doing so.
  auto apl = [](double r) { return r > 0.95 ? 1e9 : 10.0; };
  SaturationOptions opts;  // maxRate 1.0
  const double sat = findSaturationRate(apl, opts);
  EXPECT_DOUBLE_EQ(sat, opts.maxRate);
}

TEST(Saturation, KneeNearUpperBoundBisectsWithinLastProbedStep) {
  // A knee in the last *probed* step (just under the 0.787 final probe)
  // must be bracketed and bisected, not rounded up to maxRate.
  auto apl = [](double r) { return r > 0.7 ? 1e9 : 10.0; };
  SaturationOptions opts;  // maxRate 1.0
  const double sat = findSaturationRate(apl, opts);
  EXPECT_LT(sat, opts.maxRate);
  EXPECT_NEAR(sat, 0.7, 0.02);
}

TEST(Saturation, KneeBeyondMaxRateClampsToMaxRate) {
  // Saturation only past the search bound: the scan exhausts its range
  // without ever bracketing a knee and must return maxRate, not diverge.
  auto apl = [](double r) { return r > 1.5 ? 1e9 : 10.0; };
  SaturationOptions opts;
  opts.maxRate = 0.9;
  EXPECT_DOUBLE_EQ(findSaturationRate(apl, opts), 0.9);
}

TEST(Saturation, NeverDrainingCellTerminatesWithinBisectIters) {
  // A cell that never drains reports +inf APL at every probed rate above
  // zero load (see appSaturationRate). The finder must terminate after
  // the zero-load probe, one scan probe and bisectIters bisection probes
  // — never loop hunting for a finite latency.
  SaturationOptions opts;
  int calls = 0;
  auto apl = [&](double r) {
    ++calls;
    if (r <= opts.zeroLoadRate) return 5.0;
    return std::numeric_limits<double>::infinity();
  };
  const double sat = findSaturationRate(apl, opts);
  EXPECT_LE(calls, 2 + opts.bisectIters);
  EXPECT_GE(sat, opts.zeroLoadRate);
  EXPECT_LE(sat, opts.startRate);
}

TEST(Saturation, EmpiricalHalfMeshSaturation) {
  // App 0 on the west half of an 8x8 mesh with uniform intra-region
  // traffic: saturation must land at a plausible mesh throughput —
  // clearly above 0.1 and below the 1.0 link bound.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  AppTrafficSpec app;
  app.app = 0;
  SaturationOptions opts;
  opts.measureCycles = 4'000;
  opts.warmupCycles = 1'000;
  opts.drainLimit = 10'000;
  opts.bisectIters = 4;
  const double sat = appSaturationRate(m, rm, app, opts);
  EXPECT_GT(sat, 0.1);
  EXPECT_LT(sat, 1.0);
}

TEST(Saturation, InterRegionTrafficSaturatesEarlier) {
  // Sending everything across the chip adds hops and shared-channel
  // contention, so saturation drops versus region-local traffic.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  SaturationOptions opts;
  opts.measureCycles = 4'000;
  opts.warmupCycles = 1'000;
  opts.drainLimit = 10'000;
  opts.bisectIters = 4;

  AppTrafficSpec local;
  local.app = 0;
  const double satLocal = appSaturationRate(m, rm, local, opts);

  AppTrafficSpec remote;
  remote.app = 0;
  remote.intraFraction = 0.0;
  remote.interFraction = 1.0;
  remote.interTargetApp = 1;
  const double satRemote = appSaturationRate(m, rm, remote, opts);

  EXPECT_LT(satRemote, satLocal);
}

/// The serial search as it was written before the batched finder: the
/// reference the finder must reproduce bit for bit.
double serialReference(const std::function<double(double)>& aplAtRate,
                       const SaturationOptions& opts) {
  const double knee = opts.kneeFactor * aplAtRate(opts.zeroLoadRate);
  double lastGood = opts.zeroLoadRate;
  double firstBad = -1.0;
  for (double rate = opts.startRate; rate <= opts.maxRate;
       rate *= opts.growth) {
    if (aplAtRate(rate) > knee) {
      firstBad = rate;
      break;
    }
    lastGood = rate;
  }
  if (firstBad < 0.0) return opts.maxRate;
  for (int i = 0; i < opts.bisectIters; ++i) {
    const double mid = 0.5 * (lastGood + firstBad);
    if (aplAtRate(mid) > knee) {
      firstBad = mid;
    } else {
      lastGood = mid;
    }
  }
  return 0.5 * (lastGood + firstBad);
}

/// A deterministic pseudo-random latency curve: each rate hashes to a
/// latency in [5, 65), so the curve crosses the knee (4 x 10 at the
/// zero-load rate) back and forth — far from monotone.
std::function<double(double)> randomCurve(std::uint64_t seed,
                                          double badFraction) {
  return [seed, badFraction](double r) {
    if (r == SaturationOptions{}.zeroLoadRate) return 10.0;
    std::uint64_t x =
        std::bit_cast<std::uint64_t>(r) ^ (seed * 0x9E3779B97F4A7C15ull);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    if (u < badFraction) return 41.0 + 24.0 * u;
    return 5.0 + 35.0 * u;
  };
}

TEST(SaturationBatched, WidthOneKeepsTheSerialCallSequence) {
  SaturationOptions opts;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto curve = randomCurve(seed, 0.3);
    std::vector<double> serialCalls;
    const double want = serialReference(
        [&](double r) {
          serialCalls.push_back(r);
          return curve(r);
        },
        opts);
    std::vector<double> calls;
    const double got = findSaturationRate(
        [&](double r) {
          calls.push_back(r);
          return curve(r);
        },
        opts);
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(calls, serialCalls) << "seed " << seed;
  }
}

TEST(SaturationBatched, EveryWidthMatchesTheSerialSearch) {
  // Random non-monotone curves, a monotone one and a never-draining one;
  // option sets vary the bisection depth left over between batches.
  std::vector<std::function<double(double)>> curves;
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    curves.push_back(
        randomCurve(seed, 0.05 + 0.02 * static_cast<double>(seed)));
  curves.push_back([](double r) {
    return r < 0.4 ? 10.0 / (1.0 - r / 0.4) : 1e9;
  });
  curves.push_back([](double r) {
    return r <= SaturationOptions{}.zeroLoadRate
               ? 5.0
               : std::numeric_limits<double>::infinity();
  });
  std::vector<SaturationOptions> optionSets(3);
  optionSets[1].bisectIters = 4;
  optionSets[2].bisectIters = 1;
  optionSets[2].growth = 1.1;
  for (const SaturationOptions& opts : optionSets) {
    for (std::size_t c = 0; c < curves.size(); ++c) {
      const auto& curve = curves[c];
      const double want = serialReference(curve, opts);
      for (int width = 1; width <= 8; ++width) {
        std::atomic<int> running{0};
        std::atomic<int> maxRunning{0};
        std::atomic<int> withoutKnee{0};
        const KneeProbe probe = [&](double r, std::optional<double> knee,
                                    const std::atomic<bool>*) {
          const int now = ++running;
          for (int m = maxRunning; now > m;)
            maxRunning.compare_exchange_weak(m, now);
          if (!knee) ++withoutKnee;
          const double apl = curve(r);
          --running;
          return apl;
        };
        EXPECT_EQ(findSaturationRate(probe, width, opts), want)
            << "curve " << c << " width " << width;
        EXPECT_LE(maxRunning.load(), width);
        // Only the zero-load probe comes without a knee.
        EXPECT_EQ(withoutKnee.load(), 1);
      }
    }
  }
}

TEST(SaturationBatched, AbandonsProbesOffTheSearchPath) {
  // Knee at 0.06: in the second scan window of width 4, {0.0571, 0.0743,
  // 0.0965, 0.1255}, 0.0743 is the first bad rate, so the two rates above
  // it can no longer matter. Those probes wait for their abandon flag (bounded,
  // so a missing abandon fails instead of hanging); every other probe
  // answers at once. The result must still equal the serial search.
  SaturationOptions opts;
  opts.bisectIters = 0;
  const auto curve = [](double r) { return r > 0.06 ? 1e9 : 10.0; };
  std::atomic<int> abandoned{0};
  const KneeProbe probe = [&](double r, std::optional<double>,
                              const std::atomic<bool>* abandon) {
    if (r > 0.09 && r < 0.13) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!abandon->load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      if (abandon->load()) ++abandoned;
    }
    return curve(r);
  };
  EXPECT_EQ(findSaturationRate(probe, 4, opts), serialReference(curve, opts));
  EXPECT_EQ(abandoned.load(), 2);
}

TEST(SaturationBatched, AbandonsTheSubtreeAMidpointRulesOut) {
  // Width 3 bisects two levels per batch: the root midpoint m0 of the
  // scan's bracket [0.026, 0.0338], then m1 = mid(lo, m0) (needed if m0 is
  // saturated) and m2 = mid(m0, hi) (needed if it drained). The child the
  // root's verdict rules out waits for its abandon flag; with the knee
  // just above lo the root is saturated, just below hi it drained.
  SaturationOptions opts;
  opts.bisectIters = 2;
  const double lo = 0.02 * 1.3;
  const double hi = 0.02 * 1.3 * 1.3;
  const double m0 = 0.5 * (lo + hi);
  for (const double kneeRate : {0.027, 0.033}) {
    const auto curve = [kneeRate](double r) {
      return r > kneeRate ? 1e9 : 10.0;
    };
    const double offPath =
        curve(m0) > 10.0 ? 0.5 * (m0 + hi) : 0.5 * (lo + m0);
    std::atomic<int> abandoned{0};
    const KneeProbe probe = [&](double r, std::optional<double>,
                                const std::atomic<bool>* abandon) {
      if (r == offPath) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!abandon->load() &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        if (abandon->load()) ++abandoned;
      }
      return curve(r);
    };
    EXPECT_EQ(findSaturationRate(probe, 3, opts),
              serialReference(curve, opts))
        << "knee " << kneeRate;
    EXPECT_EQ(abandoned.load(), 1) << "knee " << kneeRate;
  }
}

/// One saturation probe of App 0 alone on the west half of the 8x8 halves
/// fixture, as appSaturationRate runs it, with or without a knee verdict.
ScenarioResult halvesProbe(double rate, std::optional<double> knee) {
  static const Mesh mesh(8, 8);
  static const RegionMap regions = RegionMap::halves(mesh);
  const SaturationOptions opts = campaign::paperSatOptions(true);
  SimConfig cfg;
  cfg.warmupCycles = opts.warmupCycles;
  cfg.measureCycles = opts.measureCycles;
  cfg.drainLimit = opts.drainLimit;
  AppTrafficSpec app;
  app.app = 0;
  app.injectionRate = rate;
  ScenarioSpec spec = ScenarioSpec(mesh, regions)
                          .withConfig(cfg)
                          .withScheme(schemeRoRr())
                          .withApps({app});
  if (knee) spec.withKneeVerdict({*knee, {0}});
  return runScenario(spec);
}

TEST(SaturationVerdict, EarlyVerdictMatchesFullRunOnHalves) {
  const SaturationOptions opts = campaign::paperSatOptions(true);
  const ScenarioResult zero = halvesProbe(opts.zeroLoadRate, std::nullopt);
  ASSERT_TRUE(zero.run.fullyDrained);
  const double knee = opts.kneeFactor * zero.appApl[0];
  // Around and above the knee (0.38195...): the last scan probes and the
  // bisection probes of the fast calibration, plus two off-sequence rates.
  // 0.38531... drains, with an APL just over the knee (~98 vs ~91).
  const double justOver = 0.38531448471795521;
  const double rates[] = {0.30,     0.35843207880740019, 0.3718732817626777,
                          0.37859388324031645, justOver, 0.41219689062851023,
                          0.46596170244962026, 0.55};
  int stoppedEarly = 0;
  for (const double rate : rates) {
    const ScenarioResult full = halvesProbe(rate, std::nullopt);
    const ScenarioResult early = halvesProbe(rate, knee);
    const bool fullAbove = !full.run.fullyDrained || full.appApl[0] > knee;
    const bool earlyAbove =
        !early.run.fullyDrained || early.appApl[0] > knee;
    EXPECT_EQ(earlyAbove, fullAbove) << "rate " << rate;
    if (early.run.termination == Termination::AboveKnee) {
      ++stoppedEarly;
      EXPECT_FALSE(early.run.fullyDrained);
      EXPECT_LT(early.run.cyclesRun, full.run.cyclesRun) << "rate " << rate;
    } else {
      // Not stopped: the run is the full run, cycle for cycle.
      EXPECT_EQ(early.run.termination, full.run.termination);
      EXPECT_EQ(early.run.cyclesRun, full.run.cyclesRun);
      EXPECT_EQ(early.appApl[0], full.appApl[0]);
    }
    if (rate == justOver) {
      EXPECT_TRUE(full.run.fullyDrained);
      EXPECT_GT(full.appApl[0], knee);
      EXPECT_EQ(early.run.termination, Termination::AboveKnee);
    }
  }
  EXPECT_GE(stoppedEarly, 4);
}

TEST(SaturationVerdict, FloodKneeMatchesSerialSearch) {
  // Fig. 17's flood knee: speculative probes stopped by the flood's knee
  // verdict give exactly the serial search over full-length probe runs.
  const Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);
  const SaturationOptions opts = campaign::paperSatOptions(true);
  const KneeProbe probe = scenarios::floodKneeProbe(
      mesh, regions, static_cast<int>(scenarios::fig16Benchmarks().size()),
      opts);
  const double serial = findSaturationRate(
      [&](double rate) { return probe(rate, std::nullopt, nullptr); }, opts);
  EXPECT_EQ(findSaturationRate(probe, usableCores(), opts), serial);
  // The fast fig17 campaign records this as "fig17/floodSat".
  EXPECT_EQ(serial, 0.32482907141920636);
}

TEST(SaturationVerdict, FastHalfSaturationIsPinned) {
  // The fast-window half-mesh saturation every fig09/fig10/faults campaign
  // records as "halves/halfSat", with speculative probes and early
  // verdicts active on however many cores this host offers.
  const Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  AppTrafficSpec app;
  app.app = 0;
  EXPECT_EQ(appSaturationRate(mesh, regions, app,
                              campaign::paperSatOptions(true)),
            0.38195418397913583);
}

TEST(SaturationVerdict, WarmCachedCalibrationKeepsThePinnedValue) {
  // Concurrent probes store and restore warm states (and count them) at
  // the same time; the cached calibration must still be bit-identical.
  const Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  AppTrafficSpec app;
  app.app = 0;
  SaturationOptions opts = campaign::paperSatOptions(true);
  opts.warmCacheDir = ::testing::TempDir() + "rair_saturation_warm_cache";
  std::filesystem::remove_all(opts.warmCacheDir);

  snapshot::resetWarmCacheStats();
  EXPECT_EQ(appSaturationRate(mesh, regions, app, opts),
            0.38195418397913583);
  const snapshot::WarmCacheStats cold = snapshot::warmCacheStats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.stores, 0u);

  snapshot::resetWarmCacheStats();
  EXPECT_EQ(appSaturationRate(mesh, regions, app, opts),
            0.38195418397913583);
  const snapshot::WarmCacheStats warm = snapshot::warmCacheStats();
  // The probe set is deterministic, so both passes look up as many warm
  // states; every one the first pass stored is now a hit.
  EXPECT_EQ(warm.hits + warm.misses, cold.misses);
  EXPECT_EQ(warm.hits, cold.stores);
  EXPECT_EQ(warm.warmupCyclesSaved, warm.hits * opts.warmupCycles);
  std::filesystem::remove_all(opts.warmCacheDir);
}

}  // namespace
}  // namespace rair

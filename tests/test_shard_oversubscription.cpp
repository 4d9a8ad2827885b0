// Oversubscription cannot livelock the sharded engine's spin barrier.
// Waiters spin only while every live shard thread of the process fits a
// usable core; these tests run more shard threads than cores (pinned to
// one CPU, and two 4-shard simulators at once) and must still finish —
// under the ctest TIMEOUT set in CMakeLists.txt — with state identical to
// a one-thread run. Suite names start with "Shard" so the
// ThreadSanitizer CI subset (`ctest -R Shard`) picks them up.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "sim/shard.h"
#include "snapshot/bisect.h"
#include "snapshot/buffer.h"

namespace rair {
namespace {

/// Calibrated half-mesh saturation of the seed fig09 campaign.
constexpr double kHalfSat = 0.38195418397913583;
constexpr Cycle kCycles = 3000;

ScenarioSpec loadedSpec(const Mesh& mesh, const RegionMap& regions) {
  return ScenarioSpec(mesh, regions)
      .withScheme(schemeRaRair())
      .withApps(scenarios::twoAppInterRegion(
          0.5, scenarios::kLowLoadFraction * kHalfSat,
          scenarios::kHighLoadFraction * kHalfSat))
      .withSeed(17911839290282890590ull)
      .withFastWindows();
}

std::vector<std::uint8_t> serializedAfter(const ScenarioSpec& spec) {
  AssembledScenario as = assembleScenario(spec);
  as.sim->begin();
  while (as.sim->now() < kCycles) as.sim->stepCycle();
  snapshot::Writer w;
  as.sim->save(w);
  return w.payload();
}

#ifdef __linux__
/// Pins the calling thread to the first CPU of its affinity mask for the
/// guard's lifetime; threads it creates meanwhile inherit the pin.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    if (!ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    ok_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

TEST(ShardOversubscription, FourShardsPinnedToOneCpuMatchSingleThreaded) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = loadedSpec(mesh, regions);
  const auto reference = serializedAfter(ScenarioSpec(spec).withThreads(1));

  const PinToOneCpu pin;
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(usableCores(), 1);
  const auto pinned = serializedAfter(ScenarioSpec(spec).withThreads(4));
  EXPECT_TRUE(reference == pinned)
      << snapshot::firstDifferingSection(reference, pinned);
}
#endif

TEST(ShardOversubscription, TwoConcurrentFourShardRunsMatchSingleThreaded) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec = loadedSpec(mesh, regions);
  const auto reference = serializedAfter(ScenarioSpec(spec).withThreads(1));

  std::vector<std::uint8_t> a, b;
  std::thread other(
      [&] { a = serializedAfter(ScenarioSpec(spec).withThreads(4)); });
  b = serializedAfter(ScenarioSpec(spec).withThreads(4));
  other.join();
  EXPECT_TRUE(reference == a) << snapshot::firstDifferingSection(reference, a);
  EXPECT_TRUE(reference == b) << snapshot::firstDifferingSection(reference, b);
}

}  // namespace
}  // namespace rair

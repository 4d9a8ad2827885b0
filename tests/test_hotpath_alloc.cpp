// Steady-state allocation audit: once the simulator is warm (packet slab
// at its high-water mark, every ring buffer grown to its working size),
// advancing the simulation must not reach the allocator at all — the
// tentpole guarantee of the hot-path refactor.
//
// A counting global operator new underpins the check, so this test lives
// in its own binary (the replacement operators are process-wide).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "metrics/recorder.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"

namespace {

std::atomic<std::uint64_t> gAllocCount{0};

void* countedAlloc(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rair {
namespace {

/// Steady-state allocations while stepping `cycles` cycles of a warm
/// fig09-style two-app simulation under `scheme`.
std::uint64_t steadyStateAllocs(const SchemeSpec& scheme, Cycle warmCycles,
                                Cycle measuredCycles,
                                bool withMetrics = false) {
  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::halves(mesh);
  // The fig09 p=100 cell shape at moderate absolute loads: app 0 fully
  // inter-region, app 1 hot and local.
  const auto apps = scenarios::twoAppInterRegion(1.0, 0.04, 0.26);

  SimConfig cfg = ScenarioSpec::windowPreset(true);
  cfg.routing = scheme.routing;
  cfg.net.rairPartition = scheme.needsRairPartition();

  std::vector<double> intensities;
  for (const auto& a : apps) intensities.push_back(a.injectionRate);
  const auto policy = makePolicy(scheme, intensities);
  Simulator sim(mesh, regions, cfg, *policy, 2);
  std::uint64_t seed = 1;
  for (const auto& a : apps) {
    sim.addSource(std::make_unique<RegionalizedSource>(mesh, regions, a,
                                                       seed));
    seed += 0x9E3779B9ull;
  }

  std::optional<metrics::MetricsRecorder> recorder;
  if (withMetrics) {
    // Default-level recorder, as runScenario() attaches it: all registry
    // cells are preallocated at registration, so the warm loop below must
    // stay allocation-free with it observing every delivery.
    metrics::MetricsOptions mo;  // Counters level
    recorder.emplace(sim.network(), regions, mo, /*numApps=*/2,
                     warmCycles + measuredCycles);
    sim.observers().attach(&*recorder);
  }

  sim.begin();
  for (Cycle c = 0; c < warmCycles; ++c) sim.stepCycle();

  const std::uint64_t before = gAllocCount.load(std::memory_order_relaxed);
  for (Cycle c = 0; c < measuredCycles; ++c) sim.stepCycle();
  return gAllocCount.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAlloc, CountingOperatorNewIsActive) {
  const std::uint64_t before = gAllocCount.load(std::memory_order_relaxed);
  volatile int* p = new int(42);
  delete p;
  EXPECT_GT(gAllocCount.load(std::memory_order_relaxed), before);
}

TEST(HotPathAlloc, WarmSimulationStepsAreAllocationFreeRoRr) {
  EXPECT_EQ(steadyStateAllocs(schemeRoRr(), 8'000, 2'000), 0u);
}

TEST(HotPathAlloc, WarmSimulationStepsAreAllocationFreeRaRair) {
  EXPECT_EQ(steadyStateAllocs(schemeRaRair(), 8'000, 2'000), 0u);
}

TEST(HotPathAlloc, WarmStepsStayAllocationFreeWithMetricsRecorder) {
  EXPECT_EQ(steadyStateAllocs(schemeRaRair(), 8'000, 2'000,
                              /*withMetrics=*/true),
            0u);
}

/// Heap allocations `assembleScenario` makes for a two-app RA_RAIR
/// scenario on a `dim`x`dim` half-mesh at one shard thread, per node.
double assemblyAllocsPerNode(int dim, LinkLayerKind link) {
  const Mesh mesh(dim, dim);
  const RegionMap regions = RegionMap::halves(mesh);
  const ScenarioSpec spec =
      ScenarioSpec(mesh, regions)
          .withConfig(ScenarioSpec::windowPreset(/*fast=*/true))
          .withScheme(schemeRaRair())
          .withApps(scenarios::twoAppInterRegion(1.0, 0.01, 0.1))
          .withLinkLayer(link)
          .withThreads(1);
  const std::uint64_t before = gAllocCount.load(std::memory_order_relaxed);
  const AssembledScenario as = assembleScenario(spec);
  const std::uint64_t allocs =
      gAllocCount.load(std::memory_order_relaxed) - before;
  return static_cast<double>(allocs) / mesh.numNodes();
}

// Every VC buffer and wire pipe has a bound known at construction, so the
// network's storage is a handful of blocks per node rather than one heap
// ring per queue.
TEST(HotPathAlloc, AssemblyStaysWithinTwelveAllocationsPerNode) {
  EXPECT_LE(assemblyAllocsPerNode(8, LinkLayerKind::Ideal), 12.0);
  EXPECT_LE(assemblyAllocsPerNode(16, LinkLayerKind::Ideal), 12.0);
  EXPECT_LE(assemblyAllocsPerNode(8, LinkLayerKind::Retx), 12.0);
}

}  // namespace
}  // namespace rair

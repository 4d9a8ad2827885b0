// Synthetic PARSEC-like workload models (the paper's trace substitute).
//
// The paper drives Fig. 17 from PARSEC 2.0 traces captured on the Table 1
// full-system configuration (64 UltraSPARC cores, 32KB L1s, 256KB shared
// L2 banks, 128-cycle memory, 64B blocks, 4 VCs per protocol class).
// Without SIMICS/GEMS we model each benchmark as a two-class cache-traffic
// generator whose *network-visible* behaviour matches what the paper
// relies on:
//
//  * per-benchmark network intensity (derived from published L1 miss-rate
//    orderings of PARSEC: blackscholes is the lightest, raytrace among
//    the heaviest of the four presented) — this ordering is what both
//    STC's ranking and RAIR's DPA key on;
//  * request/reply structure: 1-flit (16B) control requests answered by
//    5-flit (64B data + head) replies after the L2 or memory latency —
//    Table 1's block size and VC organization;
//  * regionalized destinations: most requests hit L2 banks in the
//    application's own region (the cooperative-caching behaviour, RB-3),
//    a small fraction go to other regions or to the corner memory
//    controllers.
//
// Each model can be captured into a trace file (trace/trace.h) and
// replayed, mirroring the original trace-driven methodology.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "common/rng.h"
#include "region/region_map.h"
#include "sim/simulator.h"
#include "traffic/source.h"

namespace rair {

/// The 13 applications of PARSEC 2.0 (the paper's infrastructure supports
/// all of them; Fig. 16/17 present four as a representative subset).
enum class ParsecBenchmark : std::uint8_t {
  Blackscholes,
  Bodytrack,
  Canneal,
  Dedup,
  Facesim,
  Ferret,
  Fluidanimate,
  Freqmine,
  Raytrace,
  Streamcluster,
  Swaptions,
  Vips,
  X264,
};

std::string_view parsecName(ParsecBenchmark b);

/// Network-facing parameters of one benchmark.
struct ParsecProfile {
  ParsecBenchmark benchmark = ParsecBenchmark::Blackscholes;
  /// L1-miss request rate per node per cycle (drives network intensity).
  double requestRate = 0.01;
  /// Fraction of requests served by L2 banks inside the own region.
  double localFraction = 0.85;
  /// Fraction served by banks in other regions (data sharing / spill).
  double remoteFraction = 0.10;
  /// Remainder goes to the corner memory controllers (off-chip misses).
  double memFraction() const { return 1.0 - localFraction - remoteFraction; }
};

/// Calibrated profile table. Intensities preserve the published ordering
/// blackscholes < swaptions < fluidanimate < raytrace used in Fig. 16.
ParsecProfile parsecProfile(ParsecBenchmark b);

/// Request generator for one benchmark mapped onto one region.
class ParsecSource final : public TrafficSource {
 public:
  ParsecSource(const Mesh& mesh, const RegionMap& regions, AppId app,
               ParsecProfile profile, std::uint64_t seed);

  void tick(InjectionSink& sink) override;
  /// The RNG stream is the only mutable state.
  void saveState(snapshot::Writer& w) const override;
  void restoreState(snapshot::Reader& r) override;

  const ParsecProfile& profile() const { return profile_; }

 private:
  const Mesh* mesh_;
  const RegionMap* regions_;
  AppId app_;
  ParsecProfile profile_;
  Xoshiro256StarStar rng_;
  std::vector<NodeId> nodes_;
  std::vector<NodeId> others_;  ///< nodes outside the region
  std::array<NodeId, 4> corners_;
};

/// Table 1 service latencies used to schedule replies.
struct MemoryTimings {
  Cycle l2Latency = 6;      ///< shared L2 bank access
  Cycle memLatency = 128;   ///< off-chip memory
};

/// Installs a delivery hook on `sim` that answers every Request with a
/// 5-flit Reply from the destination after the appropriate service
/// latency (memory latency when the request hit a corner MC, L2 latency
/// otherwise). Requests delivered at or after `replyCutoff` get no reply
/// (replies injected during drain would never let the run finish).
/// Only applications with AppId < `replyAppLimit` are served: adversarial
/// flood packets are not coherence transactions and must not be answered
/// (pass the number of real applications; kNoApp-tagged traffic is also
/// ignored). Pass a large limit to serve everyone.
void installRequestReplyHook(Simulator& sim, const Mesh& mesh,
                             MemoryTimings timings, Cycle replyCutoff,
                             AppId replyAppLimit = 32767);

}  // namespace rair

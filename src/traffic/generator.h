// Regionalized per-application traffic generation (the paper's synthetic
// RNoC workloads) and the adversarial flooder of Fig. 17.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "region/region_map.h"
#include "traffic/pattern.h"
#include "traffic/source.h"

namespace rair {

/// Traffic of one application, split into the paper's three components:
/// intra-region uniform random, inter-region global traffic with a
/// configurable pattern, and memory-controller traffic to/from the four
/// corner nodes (Sec. V.E uses 75% / 20% / 5%).
struct AppTrafficSpec {
  AppId app = 0;
  /// Offered load in flits/cycle/node over the app's nodes. Packet
  /// creation probability per node per cycle is rate / E[packet length].
  double injectionRate = 0.1;
  double intraFraction = 1.0;   ///< uniform random within the region
  double interFraction = 0.0;   ///< global traffic (pattern below)
  double mcFraction = 0.0;      ///< to/from the corner memory controllers
  PatternKind interPattern = PatternKind::UniformRandom;
  /// When set, inter-region traffic goes uniformly to this app's region
  /// instead of following interPattern (the Fig. 11(a) scenario: "30% of
  /// the traffic of App 0~2 are inter-region and towards App 3").
  AppId interTargetApp = kNoApp;
  MsgClass msgClass = MsgClass::Request;
};

/// Bernoulli generator for one application over its region.
class RegionalizedSource final : public TrafficSource {
 public:
  RegionalizedSource(const Mesh& mesh, const RegionMap& regions,
                     AppTrafficSpec spec, std::uint64_t seed);

  void tick(InjectionSink& sink) override;

  const AppTrafficSpec& spec() const { return spec_; }

  // Snapshot hooks: the RNG stream is the only mutable state (patterns and
  // node lists are pure functions of the construction arguments).
  void saveState(snapshot::Writer& w) const override;
  void restoreState(snapshot::Reader& r) override;

 private:
  /// Picks an inter-region destination; retries so the result lands
  /// outside the app's own region where the pattern allows it.
  NodeId pickInterDst(NodeId src);

  const Mesh* mesh_;
  const RegionMap* regions_;
  AppTrafficSpec spec_;
  Xoshiro256StarStar rng_;
  std::vector<NodeId> nodes_;
  double packetProb_;  ///< per node per cycle
  std::unique_ptr<TrafficPattern> intra_;
  std::unique_ptr<TrafficPattern> inter_;
  std::unique_ptr<TrafficPattern> interTarget_;
  std::array<NodeId, 4> corners_;
};

/// Chip-wide uniform-random flooder tagged with its own AppId — the
/// malicious/buggy VM model of Fig. 17 ("uniform chip-wide global traffic
/// with a load rate of 0.4 flits/cycle/node"). Foreign to every region.
class AdversarialSource final : public TrafficSource {
 public:
  AdversarialSource(const Mesh& mesh, AppId attackerApp,
                    double flitsPerCycleNode, std::uint64_t seed);

  void tick(InjectionSink& sink) override;

  void saveState(snapshot::Writer& w) const override;
  void restoreState(snapshot::Reader& r) override;

 private:
  const Mesh* mesh_;
  AppId app_;
  Xoshiro256StarStar rng_;
  double packetProb_;
  std::unique_ptr<TrafficPattern> pattern_;
};

/// Mean flit count of the bimodal length distribution (used to convert
/// flits/cycle/node into packets/cycle/node).
double meanBimodalFlits();

}  // namespace rair

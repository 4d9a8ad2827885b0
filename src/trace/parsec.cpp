#include "trace/parsec.h"

#include <algorithm>

#include "common/assert.h"
#include "snapshot/codec.h"

namespace rair {

std::string_view parsecName(ParsecBenchmark b) {
  switch (b) {
    case ParsecBenchmark::Blackscholes: return "blackscholes";
    case ParsecBenchmark::Bodytrack: return "bodytrack";
    case ParsecBenchmark::Canneal: return "canneal";
    case ParsecBenchmark::Dedup: return "dedup";
    case ParsecBenchmark::Facesim: return "facesim";
    case ParsecBenchmark::Ferret: return "ferret";
    case ParsecBenchmark::Fluidanimate: return "fluidanimate";
    case ParsecBenchmark::Freqmine: return "freqmine";
    case ParsecBenchmark::Raytrace: return "raytrace";
    case ParsecBenchmark::Streamcluster: return "streamcluster";
    case ParsecBenchmark::Swaptions: return "swaptions";
    case ParsecBenchmark::Vips: return "vips";
    case ParsecBenchmark::X264: return "x264";
  }
  return "?";
}

ParsecProfile parsecProfile(ParsecBenchmark b) {
  // requestRate is requests/node/cycle; each request moves 6 flits end to
  // end (1-flit request + 5-flit reply), so the flit load is ~6x this.
  // Values are calibrated to the published PARSEC working-set / L1-miss
  // orderings: compute-bound kernels (blackscholes, swaptions) are nearly
  // network-silent, streaming/irregular ones (canneal, streamcluster,
  // raytrace, fluidanimate) are network-hungry.
  ParsecProfile p;
  p.benchmark = b;
  switch (b) {
    case ParsecBenchmark::Blackscholes:
      p.requestRate = 0.002; p.localFraction = 0.88; p.remoteFraction = 0.07;
      break;
    case ParsecBenchmark::Swaptions:
      p.requestRate = 0.006; p.localFraction = 0.88; p.remoteFraction = 0.07;
      break;
    case ParsecBenchmark::Bodytrack:
      p.requestRate = 0.008; p.localFraction = 0.85; p.remoteFraction = 0.10;
      break;
    case ParsecBenchmark::Freqmine:
      p.requestRate = 0.010; p.localFraction = 0.85; p.remoteFraction = 0.10;
      break;
    case ParsecBenchmark::X264:
      p.requestRate = 0.012; p.localFraction = 0.82; p.remoteFraction = 0.12;
      break;
    case ParsecBenchmark::Vips:
      p.requestRate = 0.014; p.localFraction = 0.82; p.remoteFraction = 0.12;
      break;
    case ParsecBenchmark::Ferret:
      p.requestRate = 0.016; p.localFraction = 0.80; p.remoteFraction = 0.13;
      break;
    case ParsecBenchmark::Dedup:
      p.requestRate = 0.018; p.localFraction = 0.80; p.remoteFraction = 0.13;
      break;
    case ParsecBenchmark::Facesim:
      p.requestRate = 0.020; p.localFraction = 0.82; p.remoteFraction = 0.10;
      break;
    case ParsecBenchmark::Fluidanimate:
      p.requestRate = 0.022; p.localFraction = 0.83; p.remoteFraction = 0.10;
      break;
    case ParsecBenchmark::Raytrace:
      p.requestRate = 0.030; p.localFraction = 0.80; p.remoteFraction = 0.12;
      break;
    case ParsecBenchmark::Streamcluster:
      p.requestRate = 0.034; p.localFraction = 0.78; p.remoteFraction = 0.14;
      break;
    case ParsecBenchmark::Canneal:
      p.requestRate = 0.038; p.localFraction = 0.75; p.remoteFraction = 0.17;
      break;
  }
  return p;
}

ParsecSource::ParsecSource(const Mesh& mesh, const RegionMap& regions,
                           AppId app, ParsecProfile profile,
                           std::uint64_t seed)
    : mesh_(&mesh),
      regions_(&regions),
      app_(app),
      profile_(profile),
      rng_(seed),
      corners_(mesh.cornerNodes()) {
  const auto span = regions.nodesOf(app);
  nodes_.assign(span.begin(), span.end());
  RAIR_CHECK(nodes_.size() >= 2);
  for (NodeId n = 0; n < mesh.numNodes(); ++n)
    if (regions.appOf(n) != app) others_.push_back(n);
  RAIR_CHECK_MSG(profile_.memFraction() >= 0.0,
                 "local + remote fractions exceed 1");
}

void ParsecSource::tick(InjectionSink& sink) {
  for (NodeId src : nodes_) {
    if (!rng_.chance(profile_.requestRate)) continue;
    const double roll = rng_.real();
    NodeId dst;
    if (roll < profile_.localFraction) {
      // L2 bank inside the own region.
      do {
        dst = nodes_[rng_.below(nodes_.size())];
      } while (dst == src);
    } else if (roll < profile_.localFraction + profile_.remoteFraction &&
               !others_.empty()) {
      dst = others_[rng_.below(others_.size())];
    } else {
      dst = corners_[rng_.below(corners_.size())];
      if (dst == src) continue;
    }
    sink.createPacket(src, dst, app_, MsgClass::Request, kShortPacketFlits);
  }
}

void ParsecSource::saveState(snapshot::Writer& w) const {
  snapshot::saveRng(w, rng_);
}

void ParsecSource::restoreState(snapshot::Reader& r) {
  snapshot::restoreRng(r, rng_);
}

void installRequestReplyHook(Simulator& sim, const Mesh& mesh,
                             MemoryTimings timings, Cycle replyCutoff,
                             AppId replyAppLimit) {
  const auto corners = mesh.cornerNodes();
  sim.setDeliveryHook([&sim, timings, corners, replyCutoff, replyAppLimit](
                          const Packet& p, InjectionSink& sink) {
    if (p.msgClass != MsgClass::Request) return;
    if (p.app < 0 || p.app >= replyAppLimit) return;
    if (sink.now() >= replyCutoff) return;
    const bool isMem =
        std::find(corners.begin(), corners.end(), p.dst) != corners.end();
    const Cycle service = isMem ? timings.memLatency : timings.l2Latency;
    sim.injectAt(sink.now() + service, p.dst, p.src, p.app, MsgClass::Reply,
                 kLongPacketFlits);
  });
}

}  // namespace rair

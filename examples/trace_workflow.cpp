// Trace-driven workflow: capture once, replay anywhere.
//
// The paper's application experiments are trace-driven (traffic captured
// from a full-system simulation, then replayed through the network
// simulator). This example demonstrates the equivalent workflow with the
// synthetic PARSEC-like models:
//
//   1. run the fluidanimate model once over the warm-up and measurement
//      windows and capture its packets to a trace file
//      (./fluidanimate.trace by default),
//   2. reload the file and replay the identical packet stream under both
//      RO_RR and RA_RAIR, printing the APL each achieves.
//
// Because the replayed injections are bit-identical, any APL difference
// is attributable to the interference-reduction scheme alone.
//
// Usage: trace_workflow [traceFile]
#include <cstdio>

#include "sim/scenario.h"
#include "trace/parsec.h"
#include "trace/trace.h"

int main(int argc, char** argv) {
  using namespace rair;
  const std::string path =
      argc > 1 ? argv[1] : std::string("fluidanimate.trace");

  Mesh mesh(8, 8);
  const RegionMap regions = RegionMap::quadrants(mesh);

  SimConfig cfg;
  cfg.warmupCycles = 1'000;
  cfg.measureCycles = 15'000;
  cfg.net.numClasses = 2;  // request/reply classes (Table 1)

  // --- 1. Capture the warm-up and measurement windows -------------------
  // The request model is open loop (this example synthesizes no replies),
  // so what it injects does not depend on the network: the capture ticks
  // it against a sink that only numbers the packets.
  struct CountingSink final : InjectionSink {
    Cycle cycle = 0;
    PacketId created = 0;
    PacketId createPacket(NodeId, NodeId, AppId, MsgClass,
                          std::uint16_t) override {
      return created++;
    }
    Cycle now() const override { return cycle; }
  };
  {
    TraceCapture capture(std::make_unique<ParsecSource>(
        mesh, regions, /*app=*/0,
        parsecProfile(ParsecBenchmark::Fluidanimate), /*seed=*/2024));
    CountingSink sink;
    for (; sink.cycle < cfg.warmupCycles + cfg.measureCycles; ++sink.cycle)
      capture.tick(sink);
    writeTraceFile(path, capture.records());
    std::printf("captured %zu packets to %s\n", capture.records().size(),
                path.c_str());
  }

  // --- 2. Replay under each scheme ----------------------------------------
  std::vector<TraceRecord> records;
  if (!readTraceFile(path, records)) return 1;
  for (const SchemeSpec& scheme : {schemeRoRr(), schemeRaRair()}) {
    const ScenarioResult r = runScenario(ScenarioSpec(mesh, regions)
                                             .withConfig(cfg)
                                             .withScheme(scheme)
                                             .withTrace(records));
    std::printf("%-8s replayed %llu packets, APL = %.2f cycles\n",
                scheme.label.c_str(),
                static_cast<unsigned long long>(r.run.packetsDelivered),
                r.appApl[0]);
  }
  return 0;
}

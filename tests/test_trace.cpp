#include "trace/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/rair_policy.h"
#include "sim_test_util.h"
#include "traffic/generator.h"

namespace rair {
namespace {

std::vector<TraceRecord> sampleRecords() {
  return {
      {0, 0, 5, 0, MsgClass::Request, 1},
      {3, 2, 9, 1, MsgClass::Request, 5},
      {3, 9, 2, 1, MsgClass::Reply, 5},
      {17, 1, 14, 0, MsgClass::Request, 1},
  };
}

TEST(Trace, WriteReadRoundTrip) {
  std::stringstream ss;
  {
    TraceWriter w(ss);
    for (const auto& r : sampleRecords()) w.write(r);
    EXPECT_EQ(w.recordsWritten(), 4u);
  }
  std::vector<TraceRecord> back;
  ASSERT_TRUE(readTrace(ss, back));
  EXPECT_EQ(back, sampleRecords());
}

TEST(Trace, ReaderSkipsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# header\n\n5 1 2 0 0 1\n# trailing comment\n7 3 4 1 1 5\n";
  std::vector<TraceRecord> recs;
  ASSERT_TRUE(readTrace(ss, recs));
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].cycle, 5u);
  EXPECT_EQ(recs[1].msgClass, MsgClass::Reply);
  EXPECT_EQ(recs[1].numFlits, 5);
}

TEST(Trace, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/rair_trace_test.txt";
  writeTraceFile(path, sampleRecords());
  std::vector<TraceRecord> back;
  ASSERT_TRUE(readTraceFile(path, back));
  EXPECT_EQ(back, sampleRecords());
}

TEST(Trace, ReaderReportsTheLineOfDamagedInput) {
  const struct {
    const char* text;
    const char* error;
  } cases[] = {
      {"# h\n5 1 x 0 0 1\n", "line 2: malformed record"},
      {"5 1 2 0 0 1 9\n", "line 1: malformed record"},
      {"5 1 2 0 0 1\n\n3 1 2 0 0 1\n", "line 3: cycle 3 precedes cycle 5"},
      {"0 -1 2 0 0 1\n", "line 1: node id out of range"},
      {"0 1 1 0 0 1\n", "line 1: self-addressed record"},
      {"0 1 2 40000 0 1\n", "line 1: app id 40000 out of range 0..32767"},
      {"0 1 2 -1 0 1\n", "line 1: app id -1 out of range"},
      {"0 1 2 0 4 1\n", "line 1: message class out of range"},
      {"0 1 2 0 0 0\n", "line 1: flit count out of range"},
      {"-3 1 2 0 0 1\n", "line 1: negative cycle"},
  };
  for (const auto& c : cases) {
    std::stringstream ss(c.text);
    std::vector<TraceRecord> recs;
    std::string err;
    EXPECT_FALSE(readTrace(ss, recs, &err)) << c.text;
    EXPECT_EQ(err.rfind(c.error, 0), 0u) << err;
  }
  std::vector<TraceRecord> recs;
  std::string err;
  EXPECT_FALSE(readTraceFile(::testing::TempDir() + "/no/such.trace", recs,
                             &err));
  EXPECT_EQ(err, "cannot open trace file for reading");
}

TEST(Trace, ReplayInjectsAtRecordedCycles) {
  Mesh m(4, 4);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  Simulator sim(m, rm, testutil::fastConfig(), policy, 2);
  std::vector<TraceRecord> recs = {
      {10, 0, 15, 0, MsgClass::Request, 1},
      {10, 15, 0, 1, MsgClass::Request, 5},
      {50, 3, 12, 0, MsgClass::Request, 1},
  };
  sim.addSource(std::make_unique<TraceReplaySource>(recs));
  const auto r = sim.run();
  EXPECT_EQ(r.packetsCreated, 3u);
  EXPECT_EQ(r.packetsDelivered, 3u);
}

TEST(Trace, CaptureRecordsEverything) {
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  RoundRobinPolicy policy;
  auto cfg = testutil::fastConfig();
  cfg.measureCycles = 500;

  AppTrafficSpec spec;
  spec.app = 0;
  spec.injectionRate = 0.1;
  auto inner = std::make_unique<RegionalizedSource>(m, rm, spec, 7);
  auto capture = std::make_unique<TraceCapture>(std::move(inner));
  TraceCapture* capturePtr = capture.get();

  Simulator sim(m, rm, cfg, policy, 2);
  sim.addSource(std::move(capture));
  const auto r = sim.run();
  EXPECT_EQ(capturePtr->records().size(), r.packetsCreated);
  // Records are sorted by cycle and live inside app 0's region.
  Cycle prev = 0;
  for (const auto& rec : capturePtr->records()) {
    EXPECT_GE(rec.cycle, prev);
    prev = rec.cycle;
    EXPECT_EQ(rec.app, 0);
    EXPECT_EQ(rm.appOf(rec.src), 0);
  }
}

TEST(Trace, CaptureThenReplayReproducesRun) {
  // The trace-driven methodology: capturing a synthetic run and replaying
  // the trace must yield identical delivery statistics.
  Mesh m(8, 8);
  const auto rm = RegionMap::halves(m);
  auto cfg = testutil::fastConfig();
  cfg.measureCycles = 1000;

  AppTrafficSpec spec;
  spec.app = 0;
  spec.injectionRate = 0.12;
  spec.intraFraction = 0.8;
  spec.interFraction = 0.2;

  std::vector<TraceRecord> captured;
  double aplLive = 0;
  {
    RoundRobinPolicy policy;
    Simulator sim(m, rm, cfg, policy, 2);
    auto cap = std::make_unique<TraceCapture>(
        std::make_unique<RegionalizedSource>(m, rm, spec, 11));
    TraceCapture* p = cap.get();
    sim.addSource(std::move(cap));
    const auto r = sim.run();
    aplLive = r.stats.appApl(0);
    captured = p->takeRecords();
  }
  {
    RoundRobinPolicy policy;
    Simulator sim(m, rm, cfg, policy, 2);
    sim.addSource(std::make_unique<TraceReplaySource>(captured));
    const auto r = sim.run();
    EXPECT_DOUBLE_EQ(r.stats.appApl(0), aplLive);
    EXPECT_EQ(r.packetsCreated, captured.size());
  }
}

TEST(Trace, ReplayRemainingCountsDown) {
  TraceReplaySource src({{5, 0, 1, 0, MsgClass::Request, 1},
                         {9, 1, 0, 0, MsgClass::Request, 1}});
  EXPECT_EQ(src.remaining(), 2u);
}

}  // namespace
}  // namespace rair

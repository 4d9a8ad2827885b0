// Trace records, file IO and replay.
//
// The paper drives its application experiments from traces captured in a
// SIMICS/GEMS full-system simulation. We cannot run that stack, so this
// module provides (a) a trace file format with reader/writer, (b) a replay
// source that injects a trace's packets cycle-accurately, and (c) a
// capture wrapper that records any TrafficSource's output — so synthetic
// PARSEC-like models (trace/parsec.h) can be captured once and replayed
// reproducibly, exactly like the original trace-driven methodology.
//
// Format: one record per line, whitespace separated:
//   <cycle> <src> <dst> <app> <msgClass> <numFlits>
// with '#' comment lines; records must be sorted by cycle.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "traffic/source.h"

namespace rair {

struct TraceRecord {
  Cycle cycle = 0;
  NodeId src = 0;
  NodeId dst = 0;
  AppId app = 0;
  MsgClass msgClass = MsgClass::Request;
  std::uint16_t numFlits = 1;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Streams records to a text trace.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& os);
  void write(const TraceRecord& r);
  std::size_t recordsWritten() const { return count_; }

 private:
  std::ostream* os_;
  std::size_t count_ = 0;
};

/// Parses a whole trace into `out`. Returns false on damaged input — a
/// malformed line, a negative cycle or node, a self-addressed record, an
/// app id outside 0..32767, a class or flit count out of range, or records
/// out of cycle order — and then sets `*err` (when non-null) to a message
/// naming the offending line.
bool readTrace(std::istream& is, std::vector<TraceRecord>& out,
               std::string* err = nullptr);

/// Convenience file-based helpers; readTraceFile also fails on a file it
/// cannot open.
void writeTraceFile(const std::string& path,
                    const std::vector<TraceRecord>& records);
bool readTraceFile(const std::string& path, std::vector<TraceRecord>& out,
                   std::string* err = nullptr);

/// Injects a fixed record list at the recorded cycles.
class TraceReplaySource final : public TrafficSource {
 public:
  explicit TraceReplaySource(std::vector<TraceRecord> records);
  void tick(InjectionSink& sink) override;
  /// The cursor is the only mutable state.
  void saveState(snapshot::Writer& w) const override;
  void restoreState(snapshot::Reader& r) override;

  /// Records not yet injected (for tests / progress reporting).
  std::size_t remaining() const { return records_.size() - next_; }

 private:
  std::vector<TraceRecord> records_;
  std::size_t next_ = 0;
};

/// Decorates a TrafficSource, recording every packet it creates.
class TraceCapture final : public TrafficSource {
 public:
  explicit TraceCapture(std::unique_ptr<TrafficSource> inner);
  void tick(InjectionSink& sink) override;
  /// The wrapped source's state; the captured records are output, not
  /// simulation state.
  void saveState(snapshot::Writer& w) const override {
    inner_->saveState(w);
  }
  void restoreState(snapshot::Reader& r) override { inner_->restoreState(r); }

  const std::vector<TraceRecord>& records() const { return records_; }
  std::vector<TraceRecord> takeRecords() { return std::move(records_); }

 private:
  std::unique_ptr<TrafficSource> inner_;
  std::vector<TraceRecord> records_;
};

}  // namespace rair

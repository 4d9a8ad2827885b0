#include "trace/trace.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "snapshot/codec.h"

namespace rair {

TraceWriter::TraceWriter(std::ostream& os) : os_(&os) {
  *os_ << "# rair trace v1: cycle src dst app msgClass numFlits\n";
}

void TraceWriter::write(const TraceRecord& r) {
  *os_ << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << r.app << ' '
       << static_cast<int>(r.msgClass) << ' ' << r.numFlits << '\n';
  ++count_;
}

bool readTrace(std::istream& is, std::vector<TraceRecord>& out,
               std::string* err) {
  out.clear();
  std::string line;
  std::size_t lineNo = 0;
  const auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = "line " + std::to_string(lineNo) + ": " + what;
    return false;
  };
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    long long cycle, src, dst, app, cls, flits;
    std::string extra;
    if (!(ls >> cycle >> src >> dst >> app >> cls >> flits) || ls >> extra)
      return fail("malformed record (want: cycle src dst app msgClass "
                  "numFlits)");
    if (cycle < 0) return fail("negative cycle");
    if (src < 0 || dst < 0 || src > INT32_MAX || dst > INT32_MAX)
      return fail("node id out of range");
    if (src == dst) return fail("self-addressed record");
    if (app < 0 || app > INT16_MAX)
      return fail("app id " + std::to_string(app) + " out of range 0.." +
                  std::to_string(INT16_MAX));
    if (cls < 0 || cls >= kMaxMsgClasses)
      return fail("message class out of range");
    if (flits < 1 || flits > 0xFFFF) return fail("flit count out of range");
    if (!out.empty() && static_cast<Cycle>(cycle) < out.back().cycle)
      return fail("cycle " + std::to_string(cycle) + " precedes cycle " +
                  std::to_string(out.back().cycle) +
                  " (records must be sorted by cycle)");
    out.push_back({static_cast<Cycle>(cycle), static_cast<NodeId>(src),
                   static_cast<NodeId>(dst), static_cast<AppId>(app),
                   static_cast<MsgClass>(cls),
                   static_cast<std::uint16_t>(flits)});
  }
  return true;
}

void writeTraceFile(const std::string& path,
                    const std::vector<TraceRecord>& records) {
  std::ofstream os(path);
  RAIR_CHECK_MSG(os.good(), "cannot open trace file for writing");
  TraceWriter w(os);
  for (const auto& r : records) w.write(r);
}

bool readTraceFile(const std::string& path, std::vector<TraceRecord>& out,
                   std::string* err) {
  std::ifstream is(path);
  if (!is.good()) {
    if (err != nullptr) *err = "cannot open trace file for reading";
    return false;
  }
  return readTrace(is, out, err);
}

TraceReplaySource::TraceReplaySource(std::vector<TraceRecord> records)
    : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    RAIR_CHECK_MSG(records_[i - 1].cycle <= records_[i].cycle,
                   "replay records must be sorted by cycle");
}

void TraceReplaySource::tick(InjectionSink& sink) {
  while (next_ < records_.size() && records_[next_].cycle <= sink.now()) {
    const auto& r = records_[next_];
    sink.createPacket(r.src, r.dst, r.app, r.msgClass, r.numFlits);
    ++next_;
  }
}

void TraceReplaySource::saveState(snapshot::Writer& w) const {
  w.u64(next_);
}

void TraceReplaySource::restoreState(snapshot::Reader& r) {
  const std::uint64_t next = r.u64();
  RAIR_CHECK_MSG(next <= records_.size(),
                 "trace replay restore: cursor past the last record");
  next_ = static_cast<std::size_t>(next);
}

TraceCapture::TraceCapture(std::unique_ptr<TrafficSource> inner)
    : inner_(std::move(inner)) {}

namespace {

/// Forwards to the real sink while recording each created packet.
class RecordingSink final : public InjectionSink {
 public:
  RecordingSink(InjectionSink& real, std::vector<TraceRecord>& out)
      : real_(&real), out_(&out) {}

  PacketId createPacket(NodeId src, NodeId dst, AppId app, MsgClass cls,
                        std::uint16_t numFlits) override {
    out_->push_back({real_->now(), src, dst, app, cls, numFlits});
    return real_->createPacket(src, dst, app, cls, numFlits);
  }
  Cycle now() const override { return real_->now(); }

 private:
  InjectionSink* real_;
  std::vector<TraceRecord>* out_;
};

}  // namespace

void TraceCapture::tick(InjectionSink& sink) {
  RecordingSink recording(sink, records_);
  inner_->tick(recording);
}

}  // namespace rair

// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a simulator module: its name
// ("<layer>.<operation>"), start and end on the steady clock, the span
// that caused it, and an optional key shared by every span of one
// campaign cell or calibration group. Spans stay in memory and are
// written out as JSON Lines when the run ends. A disabled tracer records
// nothing, so untraced runs time exactly the calls the traced run wraps.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/json.h"

namespace rair::perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (kNoSpan when disabled). Safe to
  /// call from any thread.
  int begin(std::string name, int parent = kNoSpan, std::string key = {}) {
    if (!enabled_) return kNoSpan;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {std::move(name), std::move(key), parent, nanos(now), -1});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id == kNoSpan) return;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = nanos(now);
  }

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int parent = kNoSpan,
          std::string key = {})
        : tracer_(t), id_(t.begin(std::move(name), parent, std::move(key))) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Writes every span as one JSON object per line; false on I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"key\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.parent, campaign::jsonEscape(s.name).c_str(),
                   campaign::jsonEscape(s.key).c_str(),
                   static_cast<long long>(s.startNs),
                   static_cast<long long>(s.endNs));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::string key;
    int parent;
    std::int64_t startNs;
    std::int64_t endNs;
  };

  std::int64_t nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace rair::perfbench

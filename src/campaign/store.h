// Append-only JSON Lines result store.
//
// A campaign results file (BENCH_<name>.json) holds one JSON object per
// line, of two record types:
//
//   {"type":"cell", "key":..., ...}    a completed simulation cell
//   {"type":"value","key":...,"value":...}  a memoized calibration scalar
//
// Both are loaded on startup to implement skip-completed resume: cells
// already present are not re-executed, and calibration values (saturation
// knees — the expensive pre-pass) are not re-measured. Unparseable lines
// (e.g. a truncated tail after a crash) are skipped, so a damaged file
// degrades into extra work, never into a failed run.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "campaign/campaign.h"

namespace rair::campaign {

/// Everything a results file contains.
struct CampaignFileData {
  std::map<std::string, CellRecord> cells;  ///< by cell key
  std::map<std::string, double> values;     ///< calibration scalars by key
};

/// Loads a results file; a missing file yields empty data.
CampaignFileData loadCampaignFile(const std::string& path);

/// Serializes one memoized calibration value.
std::string valueJsonLine(const std::string& campaign, const std::string& key,
                          double value);

/// Thread-safe line-append sink. Lines are written atomically (one locked
/// fwrite + flush per line) so concurrently completing cells never
/// interleave mid-record.
class JsonlWriter {
 public:
  /// Opens `path` for append, first dropping a record cut off mid-line at
  /// its end; an empty path disables the writer.
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  bool enabled() const { return file_ != nullptr; }
  void writeLine(const std::string& line);

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

}  // namespace rair::campaign

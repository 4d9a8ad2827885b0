#include "campaign/runner.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "campaign/store.h"
#include "common/assert.h"

namespace rair::campaign {

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
  const auto d = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The context of cell `i`: the campaign-wide template with the cell's
/// seed and, when sinks are configured, its own sink prefix.
CellContext cellContext(const CampaignSpec& spec, std::size_t i,
                        const CellContext& campaignWide) {
  CellContext ctx = campaignWide;
  ctx.seed = cellSeed(spec.campaignSeed, i);
  if (!ctx.metrics.outPrefix.empty()) {
    std::string k = spec.name + "_" + spec.cells[i].key;
    for (char& c : k)
      if (c == '/') c = '_';
    ctx.metrics.outPrefix += k + ".";
  }
  return ctx;
}

}  // namespace

CellLookup CampaignSummary::lookup() const {
  CellLookup l;
  for (const CellRecord& r : records) l.insert(r);
  return l;
}

CampaignSummary runCampaign(const CampaignSpec& spec,
                            const RunnerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  CampaignSummary summary;
  summary.records.resize(spec.cells.size());

  CampaignFileData cached;
  if (options.resume) cached = loadCampaignFile(options.outPath);

  // Partition into resume hits and pending work.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const auto it = cached.cells.find(spec.cells[i].key);
    if (it != cached.cells.end()) {
      summary.records[i] = it->second;
      ++summary.skipped;
    } else {
      pending.push_back(i);
    }
  }

  JsonlWriter writer(options.outPath);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::mutex logMu;

  auto worker = [&] {
    for (;;) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= pending.size()) return;
      const std::size_t i = pending[slot];
      const CampaignCell& cell = spec.cells[i];
      const CellContext ctx = cellContext(spec, i, options.cell);

      const auto t0 = std::chrono::steady_clock::now();
      const ScenarioResult result = cell.run(ctx);
      CellRecord rec =
          makeCellRecord(spec, cell, ctx.seed, result, msSince(t0));

      writer.writeLine(rec.toJsonLine());
      // Distinct slots: no lock needed for the record itself.
      summary.records[i] = std::move(rec);
      const std::size_t done = completed.fetch_add(1) + 1;
      if (options.log) {
        const std::lock_guard<std::mutex> lock(logMu);
        const CellRecord& r = summary.records[i];
        options.log(std::string("[")
                        .append(std::to_string(done))
                        .append("/")
                        .append(std::to_string(pending.size()))
                        .append("] ")
                        .append(cell.key)
                        .append(": ")
                        .append(terminationName(r.termination))
                        .append(", ")
                        .append(std::to_string(r.wallMs / 1000.0))
                        .append(" s"));
      }
    }
  };

  int jobs = options.jobs > 0
                 ? options.jobs
                 : static_cast<int>(
                       std::max(1u, std::thread::hardware_concurrency()));
  jobs = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), pending.size()));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  summary.executed = pending.size();
  for (const CellRecord& r : summary.records)
    if (!r.drained()) ++summary.tripwired;
  summary.wallMs = msSince(start);
  return summary;
}

}  // namespace rair::campaign

#include "campaign/campaign.h"

#include <cstdlib>
#include <type_traits>

#include "campaign/json.h"
#include "common/assert.h"

namespace rair::campaign {

std::uint64_t cellSeed(std::uint64_t campaignSeed, std::size_t index) {
  // SplitMix64 finalizer over the combined words; the golden-ratio stride
  // separates consecutive indices before mixing.
  std::uint64_t z = campaignSeed +
                    0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// The metrics block, in JSON key order: each key, its record field and
/// the run summary field it is copied from.
struct MetricsField {
  const char* key;
  std::uint64_t CellMetrics::*field;
  std::uint64_t metrics::MetricsSummary::*from;
};
constexpr MetricsField kMetricsFields[] = {
    {"va_grants_native", &CellMetrics::vaGrantsNative,
     &metrics::MetricsSummary::vaGrantsNative},
    {"va_grants_foreign", &CellMetrics::vaGrantsForeign,
     &metrics::MetricsSummary::vaGrantsForeign},
    {"sa_grants_native", &CellMetrics::saGrantsNative,
     &metrics::MetricsSummary::saGrantsNative},
    {"sa_grants_foreign", &CellMetrics::saGrantsForeign,
     &metrics::MetricsSummary::saGrantsForeign},
    {"escape_allocations", &CellMetrics::escapeAllocations,
     &metrics::MetricsSummary::escapeAllocations},
    {"flits_traversed", &CellMetrics::flitsTraversed,
     &metrics::MetricsSummary::flitsTraversed},
    {"dpa_flips", &CellMetrics::dpaFlips, &metrics::MetricsSummary::dpaFlips},
};

/// The fault block, in JSON key order.
struct FaultField {
  const char* key;
  std::uint64_t fault::FaultStats::*field;
};
constexpr FaultField kFaultFields[] = {
    {"events_applied", &fault::FaultStats::eventsApplied},
    {"dropped_packets", &fault::FaultStats::droppedPackets},
    {"dropped_flits", &fault::FaultStats::droppedFlits},
    {"reroutes", &fault::FaultStats::reroutes},
    {"unreachable_pairs", &fault::FaultStats::unreachablePairs},
    {"degraded_cycles", &fault::FaultStats::degradedCycles},
    {"recovery_cycles", &fault::FaultStats::recoveryCycles},
    {"corrupted_flits", &fault::FaultStats::corruptedFlits},
    {"retransmitted_flits", &fault::FaultStats::retransmittedFlits},
    {"soft_resets", &fault::FaultStats::softResets},
};

/// A record block with every field of `fields`, in order, except
/// `omitIfZero` while it is zero.
template <class Block, class Field, std::size_t N>
JsonValue blockJson(const Block& b, const Field (&fields)[N],
                    std::uint64_t Block::*omitIfZero = nullptr) {
  JsonValue out{JsonValue::Object{}};
  for (const Field& f : fields)
    if (f.field != omitIfZero || b.*f.field != 0)
      out.set(f.key, JsonValue(b.*f.field));
  return out;
}

/// The block read back; absent or non-numeric fields stay zero.
template <class Block, class Field, std::size_t N>
Block blockFromJson(const JsonValue& obj, const Field (&fields)[N]) {
  Block b;
  for (const Field& f : fields)
    if (const JsonValue* n = obj.find(f.key); n && n->isNumber())
      b.*f.field = static_cast<std::uint64_t>(n->asNumber());
  return b;
}

}  // namespace

const std::string* CellRecord::label(std::string_view name) const {
  for (const auto& [k, v] : labels)
    if (k == name) return &v;
  return nullptr;
}

double CellRecord::reductionVs(const CellRecord& base, std::size_t app) const {
  RAIR_CHECK(app < appApl.size() && app < base.appApl.size());
  // A non-positive baseline APL (e.g. a cell that never measured a packet)
  // yields 0 rather than a division by zero.
  if (!(base.appApl[app] > 0.0)) return 0.0;
  return 1.0 - appApl[app] / base.appApl[app];
}

double CellRecord::meanReductionVs(const CellRecord& base) const {
  if (!(base.meanApl > 0.0)) return 0.0;
  return 1.0 - meanApl / base.meanApl;
}

std::string CellRecord::toJsonLine(bool includeVolatile) const {
  JsonValue::Object labelsObj;
  for (const auto& [k, v] : labels) labelsObj.emplace_back(k, JsonValue(v));
  JsonValue::Array apl;
  for (const double a : appApl) apl.emplace_back(a);

  JsonValue rec{JsonValue::Object{}};
  rec.set("type", "cell");
  rec.set("campaign", campaign);
  rec.set("key", key);
  rec.set("labels", JsonValue(std::move(labelsObj)));
  // Seeds use the full 64-bit range; serialized as a decimal string so
  // they survive the double-typed JSON number representation.
  rec.set("seed", std::to_string(seed));
  rec.set("termination", terminationName(termination));
  rec.set("cycles", JsonValue(cyclesRun));
  rec.set("packets_created", JsonValue(packetsCreated));
  rec.set("packets_delivered", JsonValue(packetsDelivered));
  rec.set("delivered_flit_rate", JsonValue(deliveredFlitRate));
  rec.set("app_apl", JsonValue(std::move(apl)));
  rec.set("mean_apl", JsonValue(meanApl));
  if (metrics) rec.set("metrics", blockJson(*metrics, kMetricsFields));
  // soft_resets is only emitted when a plan actually reset a router,
  // keeping every pre-soft-reset record byte-identical.
  if (fault)
    rec.set("fault", blockJson(*fault, kFaultFields,
                               &fault::FaultStats::softResets));
  if (includeVolatile) rec.set("wall_ms", JsonValue(wallMs));
  return rec.dump();
}

std::optional<CellRecord> CellRecord::fromJson(const JsonValue& v) {
  const JsonValue* type = v.find("type");
  if (!type || !type->isString() || type->asString() != "cell")
    return std::nullopt;
  const JsonValue* key = v.find("key");
  const JsonValue* term = v.find("termination");
  if (!key || !key->isString() || !term || !term->isString())
    return std::nullopt;
  const auto termination = terminationFromName(term->asString());
  if (!termination) return std::nullopt;

  CellRecord r;
  r.key = key->asString();
  r.termination = *termination;
  if (const JsonValue* c = v.find("campaign"); c && c->isString())
    r.campaign = c->asString();
  if (const JsonValue* l = v.find("labels"); l && l->isObject())
    for (const auto& [k, lv] : l->asObject())
      if (lv.isString()) r.labels.emplace_back(k, lv.asString());
  if (const JsonValue* s = v.find("seed"); s && s->isString())
    r.seed = std::strtoull(s->asString().c_str(), nullptr, 10);
  auto num = [&](const char* name, auto& out) {
    if (const JsonValue* n = v.find(name); n && n->isNumber())
      out = static_cast<std::remove_reference_t<decltype(out)>>(n->asNumber());
  };
  num("cycles", r.cyclesRun);
  num("packets_created", r.packetsCreated);
  num("packets_delivered", r.packetsDelivered);
  num("delivered_flit_rate", r.deliveredFlitRate);
  num("mean_apl", r.meanApl);
  num("wall_ms", r.wallMs);
  if (const JsonValue* a = v.find("app_apl"); a && a->isArray())
    for (const JsonValue& e : a->asArray())
      if (e.isNumber()) r.appApl.push_back(e.asNumber());
  if (const JsonValue* m = v.find("metrics"); m && m->isObject())
    r.metrics = blockFromJson<CellMetrics>(*m, kMetricsFields);
  if (const JsonValue* f = v.find("fault"); f && f->isObject())
    r.fault = blockFromJson<fault::FaultStats>(*f, kFaultFields);
  return r;
}

std::optional<CellRecord> CellRecord::fromJsonLine(std::string_view line) {
  const auto v = JsonValue::parse(line);
  if (!v) return std::nullopt;
  return fromJson(*v);
}

void CellLookup::insert(const CellRecord& record) {
  byKey_[record.key] = &record;
}

const CellRecord* CellLookup::find(const std::string& key) const {
  const auto it = byKey_.find(key);
  return it == byKey_.end() ? nullptr : it->second;
}

const CellRecord& CellLookup::at(const std::string& key) const {
  const CellRecord* r = find(key);
  RAIR_CHECK_MSG(r != nullptr, "campaign cell record missing");
  return *r;
}

void CampaignSpec::add(CampaignCell cell) {
  for (const auto& existing : cells)
    RAIR_CHECK_MSG(existing.key != cell.key, "duplicate campaign cell key");
  cells.push_back(std::move(cell));
}

void CampaignSpec::add(
    std::string key, std::vector<std::pair<std::string, std::string>> labels,
    ScenarioSpec spec) {
  CampaignCell cell;
  cell.key = std::move(key);
  cell.labels = std::move(labels);
  cell.run = [spec](const CellContext& ctx) {
    ScenarioSpec s = spec;
    return runScenario(ctx.applyTo(s));
  };
  cell.spec = std::move(spec);
  add(std::move(cell));
}

CellRecord makeCellRecord(const CampaignSpec& spec, const CampaignCell& cell,
                          std::uint64_t seed, const ScenarioResult& result,
                          double wallMs) {
  CellRecord r;
  r.campaign = spec.name;
  r.key = cell.key;
  r.labels = cell.labels;
  r.seed = seed;
  r.termination = result.run.termination;
  r.cyclesRun = result.run.cyclesRun;
  r.packetsCreated = result.run.packetsCreated;
  r.packetsDelivered = result.run.packetsDelivered;
  r.deliveredFlitRate = result.run.deliveredFlitRate;
  r.appApl = result.appApl;
  r.meanApl = result.meanApl;
  if (result.metrics &&
      result.metrics->level >= metrics::MetricsLevel::Summary) {
    CellMetrics cm;
    for (const MetricsField& f : kMetricsFields)
      cm.*f.field = (*result.metrics).*f.from;
    r.metrics = cm;
  }
  r.fault = result.faultStats;
  r.wallMs = wallMs;
  return r;
}

}  // namespace rair::campaign

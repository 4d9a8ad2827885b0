// rair_perfbench: runs one iteration of one benchmark workload and prints
// its wall-clock measurements as a single JSON object on stdout.
//
//   rair_perfbench --workload fig12_cold --seed 1 --dir WORKDIR [--trace]
//                  [--smoke]          short windows (the benchmark's tests)
//   rair_perfbench --calibrate-knee16  16x16 half-mesh saturation
//
// Workloads (see perfbench/README.md for why each was chosen):
//   fig12_cold   rair_campaign --name fig12 --fast --jobs 4, cold
//   knee16_t4    one runScenario: 16x16 halves, RA_RAIR, p = 100%, t4
//   faults_retx  rair_campaign --name faults --fast --jobs 4
//                --link-layer retx --fault-density 0.5, cold
//
// Every time is steady_clock wall time; process CPU time is reported
// beside it, never in its place. The canonical outputs of the run are
// written to WORKDIR/canonical.jsonl for perfbench/run.py to check. With
// --trace the same calls run inside spans (written to WORKDIR/spans.jsonl)
// and extra probes measure the per-layer metrics after the workload.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/builtin.h"
#include "campaign/json.h"
#include "campaign/runner.h"
#include "campaign/store.h"
#include "metrics/recorder.h"
#include "scenarios/paper_scenarios.h"
#include "sim/scenario.h"
#include "snapshot/buffer.h"
#include "tracer.h"

namespace rair::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using campaign::formatJsonDouble;
using campaign::JsonValue;

/// Saturation of the knee16 workload's shape (intra-region uniform,
/// alone on one half of a 16x16 mesh) from paperSatOptions(fast = true):
/// `rair_perfbench --calibrate-knee16`. Hard-coded so the workload starts
/// at once and is identical on every host. The 8x8 value (0.382, the
/// fig09 "halves/halfSat" record) overloads the 16x16 mesh.
constexpr double kHalfSat16 = 0.20444251195062507;

/// App 1's load as a share of kHalfSat16. The paper's high-load point,
/// scenarios::kHighLoadFraction (0.85), sits so close to this shape's
/// knee (App 0's inter-region traffic lands in App 1's half too) that
/// about one seed in a few hundred saturates and never drains. At 0.70
/// every seed drains with a wide margin.
constexpr double kKneeLoadFraction = 0.70;

/// Set-up repetitions per run; setup_s is their median. They run right
/// after the workload, on a busy CPU, so process start-up does not
/// stretch the first ones.
constexpr int kSetupReps = 21;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident memory of this process image. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss would also count the forked parent's pages.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string field;
  while (in >> field) {
    if (field == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

template <typename F>
double medianSetup(F once) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) times.push_back(once());
  return median(times);
}

/// Relative extra wall time of `a` over `b`: the median over alternating
/// (a, b) pairs of t(a) / t(b) - 1.
template <typename A, typename B>
double pairedCost(A a, B b, int pairs = 3) {
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    const auto t0 = Clock::now();
    a();
    const auto t1 = Clock::now();
    b();
    ratios.push_back(seconds(t1 - t0) / seconds(Clock::now() - t1) - 1.0);
  }
  return median(ratios);
}

// ---- Host context -------------------------------------------------------

/// The cgroup v2 CPU quota in cores ("max" or absent = no quota).
std::optional<double> cgroupQuotaCores(std::string* raw) {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota, period;
  if (!(in >> quota >> period)) {
    *raw = "absent";
    return std::nullopt;
  }
  *raw = quota + " " + period;
  if (quota == "max") return std::nullopt;
  const double p = std::atof(period.c_str());
  if (!(p > 0.0)) return std::nullopt;
  return std::atof(quota.c_str()) / p;
}

int affinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

struct HostContext {
  int nproc = 1;
  std::string cpuMax;
  int usableCores = 1;
  int threads = 1;  ///< min(4, usable cores): the workload thread budget
};

HostContext hostContext() {
  HostContext h;
  h.nproc = affinityCores();
  h.usableCores = h.nproc;
  if (const auto q = cgroupQuotaCores(&h.cpuMax))
    h.usableCores = std::clamp(static_cast<int>(std::ceil(*q)), 1, h.nproc);
  h.threads = std::min(4, h.usableCores);
  return h;
}

bool checksArmed() {
#ifdef PB_RAIR_CHECKS
  return true;
#else
  return false;
#endif
}

JsonValue contextJson(const HostContext& h) {
  JsonValue c(JsonValue::Object{});
  c.set("nproc", h.nproc);
  c.set("cgroup_cpu_max", h.cpuMax);
  c.set("usable_cores", h.usableCores);
  c.set("threads", h.threads);
  c.set("compiler", PB_COMPILER);
  c.set("build_type", PB_BUILD_TYPE);
  c.set("rair_checks", checksArmed());
  return c;
}

// ---- Results ------------------------------------------------------------

/// Named per-layer values of a traced run, in insertion order.
using Metrics = std::vector<std::pair<std::string, double>>;

struct Outcome {
  double wallS = 0.0;
  double cpuS = 0.0;
  double setupS = 0.0;
  double simCycles = 0.0;
  std::vector<std::string> canonical;  ///< reference-comparable lines
  Metrics layer;                       ///< traced runs only
};

bool writeLines(const std::string& path, const std::vector<std::string>& l) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const std::string& s : l) std::fprintf(f, "%s\n", s.c_str());
  return std::fclose(f) == 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  bool trace = false;
  /// Short windows for the benchmark's own smoke tests. Outputs then
  /// differ from the references, so only drain and conservation hold.
  bool smoke = false;
  HostContext host;
};

// ---- Campaign workloads (fig12_cold, faults_retx) -------------------------

struct CampaignShape {
  std::string name;
  LinkLayerKind link = LinkLayerKind::Ideal;
  double faultDensity = 0.0;
};

/// The campaign's first simulated scenario: the zero-load probe of its
/// first solo calibration (sim/saturation.cpp), on a fresh fixture.
ScenarioSpec firstProbeSpec(const CampaignShape& shape, const Mesh& mesh,
                            const RegionMap& regions) {
  AppTrafficSpec app;
  app.app = 0;
  if (shape.name == "fig12") app = scenarios::fourAppLowTowardHigh(0, 0)[0];
  const SaturationOptions sat = campaign::paperSatOptions(true);
  app.injectionRate = sat.zeroLoadRate;
  SimConfig cfg;
  cfg.warmupCycles = sat.warmupCycles;
  cfg.measureCycles = sat.measureCycles;
  cfg.drainLimit = sat.drainLimit;
  return ScenarioSpec(mesh, regions)
      .withConfig(cfg)
      .withScheme(schemeRoRr())
      .withApps({app});
}

/// Fixture construction plus assembly of the first simulated scenario:
/// everything a campaign does before its first simulated cycle.
double campaignSetupOnce(const CampaignShape& shape, const Options& o) {
  const auto t0 = Clock::now();
  const std::string out = o.dir + "/setup.jsonl";
  std::remove(out.c_str());
  {
    [[maybe_unused]] const campaign::CampaignFileData data =
        campaign::loadCampaignFile(out);
    campaign::JsonlWriter writer(out);
    campaign::BuildContext ctx = campaign::defaultBuildContext(true);
    const Mesh mesh(8, 8);
    const RegionMap regions = shape.name == "fig12"
                                  ? RegionMap::quadrants(mesh)
                                  : RegionMap::halves(mesh);
    [[maybe_unused]] const AssembledScenario as =
        assembleScenario(firstProbeSpec(shape, mesh, regions));
  }
  return seconds(Clock::now() - t0);
}

/// One calibration miss: which group it belongs to and how long it took.
struct CalMiss {
  std::string key;
  double seconds = 0.0;
};

/// Builds the campaign spec the way tools/rair_campaign does: a
/// results-file-backed memo, so every calibration value is appended as a
/// value record. `warmDir` (traced runs) lets the probes store/restore
/// their end-of-warm-up states.
campaign::CampaignSpec buildSpec(const CampaignShape& shape,
                                 const Options& o, const std::string& out,
                                 const std::string& warmDir, Tracer& tracer,
                                 int parent,
                                 std::vector<std::pair<std::string, double>>*
                                     values,
                                 std::vector<CalMiss>* misses) {
  const campaign::CampaignFileData data = campaign::loadCampaignFile(out);
  campaign::JsonlWriter writer(out);
  campaign::BuildContext ctx = campaign::defaultBuildContext(true);
  ctx.campaignSeed = o.seed;
  ctx.sim.net.linkLayer = shape.link;
  ctx.faultDensity = shape.faultDensity;
  if (o.smoke) {
    ctx.sim.warmupCycles = ctx.sat.warmupCycles = 200;
    ctx.sim.measureCycles = ctx.sat.measureCycles = 1'000;
    ctx.sat.drainLimit = 5'000;
    ctx.sat.bisectIters = 1;
  }
  ctx.sat.warmCacheDir = warmDir;
  auto memo = std::make_shared<std::map<std::string, double>>(data.values);
  const std::string name = shape.name;
  ctx.value = [&, memo, name](const std::string& key,
                              const std::function<double()>& fn) {
    const auto it = memo->find(key);
    if (it != memo->end()) return it->second;
    const auto t0 = Clock::now();
    double v = 0.0;
    {
      const Tracer::Scope span(tracer, "scenarios.calibrate", parent, key);
      v = fn();
    }
    if (misses != nullptr) misses->push_back({key, seconds(Clock::now() - t0)});
    (*memo)[key] = v;
    writer.writeLine(campaign::valueJsonLine(name, key, v));
    if (values != nullptr) values->emplace_back(key, v);
    return v;
  };
  return campaign::buildBuiltinCampaign(shape.name, ctx);
}

/// Calibration keys name their group before the last '/'
/// ("fig12/cal_a/app2" -> "fig12/cal_a").
std::string calGroup(const std::string& key) {
  const auto slash = key.rfind('/');
  return slash == std::string::npos ? key : key.substr(0, slash);
}

void addCampaignRecordMetrics(const campaign::CampaignSummary& summary,
                              int jobs, double runS, Metrics& m) {
  std::vector<double> cellS;
  double cellSum = 0.0;
  fault::FaultStats faults;
  for (const campaign::CellRecord& r : summary.records) {
    cellS.push_back(r.wallMs / 1000.0);
    cellSum += r.wallMs / 1000.0;
    if (r.fault) {
      faults.eventsApplied += r.fault->eventsApplied;
      faults.droppedPackets += r.fault->droppedPackets;
      faults.reroutes += r.fault->reroutes;
      faults.corruptedFlits += r.fault->corruptedFlits;
      faults.retransmittedFlits += r.fault->retransmittedFlits;
    }
  }
  m.emplace_back("campaign.cells", static_cast<double>(cellS.size()));
  m.emplace_back("campaign.cell_s_p50", median(cellS));
  m.emplace_back("campaign.cell_s_max",
                 cellS.empty() ? 0.0
                               : *std::max_element(cellS.begin(), cellS.end()));
  m.emplace_back("campaign.pool_util",
                 runS > 0.0 ? cellSum / (jobs * runS) : 0.0);
  m.emplace_back("link.retx_amplification",
                 faults.corruptedFlits == 0
                     ? 0.0
                     : static_cast<double>(faults.retransmittedFlits) /
                           static_cast<double>(faults.corruptedFlits));
  m.emplace_back("fault.events", static_cast<double>(faults.eventsApplied));
  m.emplace_back("fault.dropped_packets",
                 static_cast<double>(faults.droppedPackets));
  m.emplace_back("fault.reroutes", static_cast<double>(faults.reroutes));
}

/// link.retx0_cost: the fault-free RA_RAIR/none cell on retx links vs the
/// same cell, with the same seed, on ideal links.
double retxZeroCost(const CampaignShape& shape, const Options& o,
                    const campaign::CampaignSpec& retxSpec, Tracer& tracer,
                    int parent) {
  CampaignShape ideal = shape;
  ideal.link = LinkLayerKind::Ideal;
  // The calibration values are in the retx results file already, so this
  // build simulates nothing.
  const campaign::CampaignSpec idealSpec = buildSpec(
      ideal, o, o.dir + "/results.jsonl", "", tracer, parent, nullptr,
      nullptr);
  const auto indexOf = [](const campaign::CampaignSpec& s) {
    for (std::size_t i = 0; i < s.cells.size(); ++i)
      if (s.cells[i].key == "RA_RAIR/none") return i;
    std::fprintf(stderr, "rair_perfbench: no RA_RAIR/none cell\n");
    std::exit(1);
  };
  const std::size_t retxIndex = indexOf(retxSpec);
  const campaign::CampaignCell& retxCell = retxSpec.cells[retxIndex];
  const campaign::CampaignCell& idealCell = idealSpec.cells[indexOf(idealSpec)];
  campaign::CellContext cc;
  cc.seed = campaign::cellSeed(o.seed, retxIndex);
  return pairedCost(
      [&] {
        const Tracer::Scope span(tracer, "link.cell_retx", parent,
                                 "RA_RAIR/none");
        retxCell.run(cc);
      },
      [&] {
        const Tracer::Scope span(tracer, "link.cell_ideal", parent,
                                 "RA_RAIR/none");
        idealCell.run(cc);
      });
}

/// A copy of `spec` whose cells each run inside a span under `parent`
/// (the probes reuse the bare cells).
campaign::CampaignSpec withCellSpans(const campaign::CampaignSpec& spec,
                                     Tracer& tracer, int parent) {
  campaign::CampaignSpec traced = spec;
  for (campaign::CampaignCell& cell : traced.cells) {
    cell.run = [&tracer, parent, key = cell.key,
                inner = std::move(cell.run)](const campaign::CellContext& c) {
      const Tracer::Scope span(tracer, "sim.cell", parent, key);
      return inner(c);
    };
  }
  return traced;
}

Outcome runCampaignWorkload(const CampaignShape& shape, const Options& o,
                            Tracer& tracer) {
  Outcome r;
  const std::string out = o.dir + "/results.jsonl";
  // The traced run's calibration fills a warm-state cache, which the
  // snapshot probe below then re-builds against.
  const std::string warmDir = o.trace ? o.dir + "/warm" : "";
  std::vector<std::pair<std::string, double>> values;
  std::vector<CalMiss> misses;

  const auto t0 = Clock::now();
  const double cpu0 = processCpuSeconds();
  const int top = tracer.begin("campaign.workload");
  {
    const Tracer::Scope span(tracer, "campaign.fixture", top);
    std::remove(out.c_str());
    if (!warmDir.empty()) snapshot::ensureDir(warmDir);
  }
  const auto b0 = Clock::now();
  const int buildSpan = tracer.begin("campaign.build", top);
  const campaign::CampaignSpec spec =
      buildSpec(shape, o, out, warmDir, tracer, buildSpan, &values, &misses);
  tracer.end(buildSpan);
  const double buildS = seconds(Clock::now() - b0);

  const auto r0 = Clock::now();
  const int runSpan = tracer.begin("campaign.run", top);
  campaign::RunnerOptions ro;
  ro.jobs = o.host.threads;
  ro.outPath = out;
  ro.resume = true;
  const campaign::CampaignSummary summary =
      tracer.enabled()
          ? campaign::runCampaign(withCellSpans(spec, tracer, runSpan), ro)
          : campaign::runCampaign(spec, ro);
  tracer.end(runSpan);
  tracer.end(top);
  const double runS = seconds(Clock::now() - r0);
  r.wallS = seconds(Clock::now() - t0);
  r.cpuS = processCpuSeconds() - cpu0;
  r.setupS = medianSetup([&] { return campaignSetupOnce(shape, o); });

  std::sort(values.begin(), values.end());
  for (const auto& [key, v] : values)
    r.canonical.push_back(campaign::valueJsonLine(shape.name, key, v));
  for (const campaign::CellRecord& rec : summary.records) {
    r.simCycles += static_cast<double>(rec.cyclesRun);
    r.canonical.push_back(rec.toJsonLine(false));
  }
  if (!o.trace) return r;

  Metrics& m = r.layer;
  m.emplace_back("campaign.build_s", buildS);
  std::map<std::string, double> groups;
  for (const CalMiss& miss : misses) groups[calGroup(miss.key)] += miss.seconds;
  double groupMax = 0.0;
  for (const auto& g : groups) groupMax = std::max(groupMax, g.second);
  m.emplace_back("calibrate.misses", static_cast<double>(misses.size()));
  m.emplace_back("calibrate.groups", static_cast<double>(groups.size()));
  m.emplace_back("calibrate.group_s_max", groupMax);
  m.emplace_back("campaign.run_s", runS);
  addCampaignRecordMetrics(summary, ro.jobs, runS, m);

  // Probes after the workload: outside its wall time.
  const int probes = tracer.begin("probe");
  {
    const std::string warmOut = o.dir + "/warm_results.jsonl";
    std::remove(warmOut.c_str());
    const auto w0 = Clock::now();
    const Tracer::Scope span(tracer, "snapshot.warm_build", probes);
    buildSpec(shape, o, warmOut, warmDir, tracer, span.id(), nullptr,
              nullptr);
    m.emplace_back("snapshot.warm_build_s", seconds(Clock::now() - w0));
  }
  m.emplace_back("link.retx0_cost",
                 shape.link == LinkLayerKind::Retx
                     ? retxZeroCost(shape, o, spec, tracer, probes)
                     : 0.0);
  tracer.end(probes);
  return r;
}

// ---- knee16_t4 ----------------------------------------------------------

struct Knee16Fixture {
  Mesh mesh{16, 16};
  RegionMap regions = RegionMap::halves(mesh);

  ScenarioSpec spec(const Options& o, int threads) const {
    SimConfig cfg = ScenarioSpec::windowPreset(/*fast=*/true);
    if (o.smoke) {
      cfg.warmupCycles = 200;
      cfg.measureCycles = 1'000;
    }
    return ScenarioSpec(mesh, regions)
        .withConfig(cfg)
        .withScheme(schemeRaRair())
        .withApps(scenarios::twoAppInterRegion(
            /*p=*/1.0, scenarios::kLowLoadFraction * kHalfSat16,
            kKneeLoadFraction * kHalfSat16))
        .withSeed(o.seed)
        .withThreads(threads);
  }
};

std::string scenarioCanonical(const ScenarioResult& res, std::uint64_t seed) {
  JsonValue::Array apl;
  for (const double v : res.appApl) apl.emplace_back(v);
  JsonValue rec(JsonValue::Object{});
  rec.set("type", "scenario");
  rec.set("key", "knee16_t4");
  rec.set("seed", std::to_string(seed));
  rec.set("termination", terminationName(res.run.termination));
  rec.set("cycles", res.run.cyclesRun);
  rec.set("packets_created", res.run.packetsCreated);
  rec.set("packets_delivered", res.run.packetsDelivered);
  rec.set("flit_hops", res.run.flitHops);
  rec.set("delivered_flit_rate", res.run.deliveredFlitRate);
  rec.set("app_apl", std::move(apl));
  rec.set("mean_apl", res.meanApl);
  return rec.dump();
}

/// Counts packets instead of creating them: times the sources alone.
class CountingSink final : public InjectionSink {
 public:
  PacketId createPacket(NodeId, NodeId, AppId, MsgClass,
                        std::uint16_t) override {
    return created_++;
  }
  Cycle now() const override { return now_; }
  void advance() { ++now_; }
  std::uint64_t created() const { return created_; }

 private:
  Cycle now_ = 0;
  std::uint64_t created_ = 0;
};

struct StepPass {
  double wallS = 0.0;
  double cpuS = 0.0;
  double assembleS = 0.0;
  double windowS[3] = {0.0, 0.0, 0.0};  ///< warm-up, measure, drain
  std::vector<double> stepUs;
  std::uint64_t flitHops = 0;
  std::size_t inFlight = 0;
};

/// Drives begin()/stepCycle() for exactly `cycles` cycles with the
/// default-level recorder attached, as runScenario() runs it, timing
/// every step.
StepPass stepPass(const ScenarioSpec& spec, Cycle cycles, Tracer& tracer,
                  int parent) {
  StepPass p;
  const auto a0 = Clock::now();
  AssembledScenario as;
  {
    const Tracer::Scope span(tracer, "scenarios.assemble", parent);
    as = assembleScenario(spec);
  }
  p.assembleS = seconds(Clock::now() - a0);
  const SimConfig cfg = spec.effectiveConfig();
  Simulator& sim = *as.sim;
  metrics::MetricsRecorder recorder(sim.network(), *spec.regions,
                                    spec.metrics, as.numApps,
                                    cfg.warmupCycles + cfg.measureCycles);
  sim.observers().attach(&recorder);
  sim.begin();
  const Cycle bounds[3] = {std::min(cycles, cfg.warmupCycles),
                           std::min(cycles,
                                    cfg.warmupCycles + cfg.measureCycles),
                           cycles};
  static const char* const kWindow[3] = {"sim.warmup", "sim.measure",
                                         "sim.drain"};
  p.stepUs.reserve(cycles);
  const std::uint64_t hops0 = sim.network().totalFlitsTraversed();
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  for (int w = 0; w < 3; ++w) {
    const Tracer::Scope span(tracer, kWindow[w], parent);
    const auto w0 = Clock::now();
    while (sim.now() < bounds[w]) {
      const auto s0 = Clock::now();
      sim.stepCycle();
      p.stepUs.push_back(1e6 * seconds(Clock::now() - s0));
    }
    p.windowS[w] = seconds(Clock::now() - w0);
  }
  p.wallS = seconds(Clock::now() - t0);
  p.cpuS = processCpuSeconds() - cpu0;
  p.flitHops = sim.network().totalFlitsTraversed() - hops0;
  p.inFlight = sim.inFlight();
  sim.observers().detach(&recorder);
  return p;
}

Outcome runKnee16Workload(const Options& o, Tracer& tracer) {
  Outcome r;
  const auto t0 = Clock::now();
  const double cpu0 = processCpuSeconds();
  const int top = tracer.begin("sim.workload");
  std::optional<Knee16Fixture> fx;
  {
    const Tracer::Scope span(tracer, "sim.fixture", top);
    fx.emplace();
  }
  const ScenarioSpec spec = fx->spec(o, o.host.threads);
  ScenarioResult res;
  {
    const Tracer::Scope span(tracer, "sim.run_scenario", top);
    res = runScenario(spec);
  }
  tracer.end(top);
  r.wallS = seconds(Clock::now() - t0);
  r.cpuS = processCpuSeconds() - cpu0;
  r.simCycles = static_cast<double>(res.run.cyclesRun);
  r.canonical.push_back(scenarioCanonical(res, o.seed));
  r.setupS = medianSetup([&] {
    const auto s0 = Clock::now();
    const Knee16Fixture setupFx;
    const AssembledScenario as =
        assembleScenario(setupFx.spec(o, o.host.threads));
    // Stop the clock before the engine's worker threads are joined.
    return seconds(Clock::now() - s0);
  });
  if (!o.trace) return r;

  const Cycle cycles = res.run.cyclesRun;
  Metrics& m = r.layer;
  const int probes = tracer.begin("probe");

  // Engine: the same run, stepped cycle by cycle at t4 and t1.
  const int t4Span = tracer.begin("sim.step_t4", probes);
  const StepPass t4 = stepPass(spec, cycles, tracer, t4Span);
  tracer.end(t4Span);
  const int t1Span = tracer.begin("sim.step_t1", probes);
  const StepPass t1 = stepPass(fx->spec(o, 1), cycles, tracer, t1Span);
  tracer.end(t1Span);
  // The stepped run must reproduce runScenario exactly.
  if (t4.flitHops != res.run.flitHops || t1.flitHops != res.run.flitHops ||
      res.run.packetsCreated != res.run.packetsDelivered + t4.inFlight) {
    std::fprintf(stderr,
                 "rair_perfbench: stepped run diverged from runScenario\n");
    r.canonical.push_back("{\"type\":\"error\",\"key\":\"stepped_run\"}");
  }
  m.emplace_back("engine.assemble_s", t4.assembleS);
  m.emplace_back("engine.warmup_s", t4.windowS[0]);
  m.emplace_back("engine.measure_s", t4.windowS[1]);
  m.emplace_back("engine.drain_s", t4.windowS[2]);
  m.emplace_back("engine.steps", static_cast<double>(t4.stepUs.size()));
  m.emplace_back("engine.step_us_p50", percentile(t4.stepUs, 0.50));
  m.emplace_back("engine.step_us_p99", percentile(t4.stepUs, 0.99));
  m.emplace_back("engine.flit_hops_per_s",
                 static_cast<double>(t4.flitHops) / t4.wallS);
  m.emplace_back("shard.threads", static_cast<double>(o.host.threads));
  m.emplace_back("shard.scaling_t4", t1.wallS / t4.wallS);
  m.emplace_back("shard.cpu_per_wall", t4.cpuS / t4.wallS);

  // Traffic: the sources alone against a counting sink.
  {
    const Tracer::Scope span(tracer, "traffic.tick", probes);
    std::vector<std::unique_ptr<TrafficSource>> sources;
    std::uint64_t seed = spec.seed;
    for (const AppTrafficSpec& a : spec.apps) {
      sources.push_back(std::make_unique<RegionalizedSource>(
          fx->mesh, fx->regions, a, seed));
      seed += 0x9E3779B9ull;
    }
    CountingSink sink;
    const auto k0 = Clock::now();
    for (Cycle c = 0; c < cycles; ++c) {
      for (auto& s : sources) s->tick(sink);
      sink.advance();
    }
    const double tickS = seconds(Clock::now() - k0);
    if (sink.created() != res.run.packetsCreated) {
      std::fprintf(stderr, "rair_perfbench: sources alone created %llu "
                           "packets, the run %llu\n",
                   static_cast<unsigned long long>(sink.created()),
                   static_cast<unsigned long long>(res.run.packetsCreated));
      r.canonical.push_back("{\"type\":\"error\",\"key\":\"traffic_tick\"}");
    }
    m.emplace_back("traffic.tick_ns_per_cycle",
                   1e9 * tickS / static_cast<double>(cycles));
  }

  // Metrics: the default Counters level vs Off.
  {
    ScenarioSpec off = spec;
    off.withMetricsLevel(metrics::MetricsLevel::Off);
    m.emplace_back("metrics.counters_cost",
                   pairedCost(
                       [&] {
                         const Tracer::Scope span(tracer,
                                                  "metrics.run_counters",
                                                  probes);
                         runScenario(spec);
                       },
                       [&] {
                         const Tracer::Scope span(tracer, "metrics.run_off",
                                                  probes);
                         runScenario(off);
                       }));
  }
  tracer.end(probes);
  return r;
}

// ---- Command line -------------------------------------------------------

/// Calibrates the knee16 shape's saturation with the fast campaign
/// options (how kHalfSat16 was obtained).
int calibrateKnee16() {
  const Knee16Fixture fx;
  AppTrafficSpec shape;
  shape.app = 0;
  const double sat = appSaturationRate(fx.mesh, fx.regions, shape,
                                       campaign::paperSatOptions(true));
  std::printf("%s\n", formatJsonDouble(sat).c_str());
  return 0;
}

std::string outcomeJson(const Options& o, const Outcome& r) {
  JsonValue layer(JsonValue::Object{});
  for (const auto& [name, value] : r.layer) layer.set(name, value);
  JsonValue out(JsonValue::Object{});
  out.set("workload", o.workload);
  out.set("seed", std::to_string(o.seed));
  out.set("trace", o.trace);
  out.set("context", contextJson(o.host));
  out.set("wall_s", r.wallS);
  out.set("cpu_s", r.cpuS);
  out.set("peak_rss_mb", peakRssMb());
  out.set("setup_s", r.setupS);
  out.set("sim_cycles", r.simCycles);
  out.set("layer", std::move(layer));
  return out.dump();
}

void usage() {
  std::fprintf(stderr,
               "usage: rair_perfbench --workload NAME --seed N --dir DIR "
               "[--trace] [--smoke]\n"
               "       rair_perfbench --calibrate-knee16\n"
               "workloads: fig12_cold knee16_t4 faults_retx\n");
}

int run(int argc, char** argv) {
  Options o;
  o.host = hostContext();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--calibrate-knee16") {
      return calibrateKnee16();
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && v) {
      o.workload = v;
      ++i;
    } else if (arg == "--seed" && v) {
      o.seed = std::strtoull(v, nullptr, 10);
      ++i;
    } else if (arg == "--dir" && v) {
      o.dir = v;
      ++i;
    } else {
      usage();
      return 2;
    }
  }
  if (o.workload.empty() || o.dir.empty()) {
    usage();
    return 2;
  }
  const std::string buildType = PB_BUILD_TYPE;
  if (buildType == "Debug" || checksArmed()) {
    std::fprintf(stderr, "rair_perfbench: refusing to report from a %s "
                         "build%s\n",
                 buildType.c_str(), checksArmed() ? " with RAIR_CHECKS=ON" : "");
    return 3;
  }
  if (!snapshot::ensureDir(o.dir)) {
    std::fprintf(stderr, "rair_perfbench: cannot create %s\n", o.dir.c_str());
    return 1;
  }

  Tracer tracer(o.trace);
  Outcome r;
  if (o.workload == "fig12_cold") {
    r = runCampaignWorkload({"fig12"}, o, tracer);
  } else if (o.workload == "faults_retx") {
    r = runCampaignWorkload({"faults", LinkLayerKind::Retx, 0.5}, o, tracer);
  } else if (o.workload == "knee16_t4") {
    r = runKnee16Workload(o, tracer);
  } else {
    usage();
    return 2;
  }
  if (!writeLines(o.dir + "/canonical.jsonl", r.canonical) ||
      (o.trace && !tracer.write(o.dir + "/spans.jsonl"))) {
    std::fprintf(stderr, "rair_perfbench: cannot write into %s\n",
                 o.dir.c_str());
    return 1;
  }
  std::printf("%s\n", outcomeJson(o, r).c_str());
  return 0;
}

}  // namespace
}  // namespace rair::perfbench

int main(int argc, char** argv) { return rair::perfbench::run(argc, argv); }

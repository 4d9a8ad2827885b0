#include "campaign/builtin.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>

#include "common/assert.h"
#include "fault/plan.h"
#include "fault/random_plan.h"
#include "scenarios/paper_scenarios.h"
#include "scenarios/parsec_scenario.h"
#include "sim/shard.h"
#include "stats/report.h"
#include "traffic/pattern.h"

namespace rair::campaign {

SaturationOptions paperSatOptions(bool fast) {
  SaturationOptions o;
  if (fast) {
    o.warmupCycles = 1'000;
    o.measureCycles = 5'000;
    o.drainLimit = 15'000;
    o.bisectIters = 4;
  } else {
    o.warmupCycles = 2'000;
    o.measureCycles = 10'000;
    o.drainLimit = 30'000;
    o.bisectIters = 6;
  }
  return o;
}

BuildContext defaultBuildContext(bool fast) {
  BuildContext ctx;
  ctx.sim = ScenarioSpec::windowPreset(fast);
  ctx.sat = paperSatOptions(fast);
  auto memo = std::make_shared<std::map<std::string, double>>();
  ctx.value = [memo](const std::string& key,
                     const std::function<double()>& fn) {
    const auto it = memo->find(key);
    if (it != memo->end()) return it->second;
    return memo->emplace(key, fn()).first->second;
  };
  return ctx;
}

namespace {

__attribute__((format(printf, 2, 3)))
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

void logTo(const BuildContext& ctx, const std::string& msg) {
  if (ctx.log) ctx.log(msg);
}

/// An 8x8 mesh and its region map. Each one lives for the whole process,
/// built in place (the region map points at the mesh): every cell spec
/// references it.
struct Fixture {
  template <class MakeRegions>
  explicit Fixture(MakeRegions make) : regions(make(mesh)) {}
  Fixture(const Fixture&) = delete;

  Mesh mesh{8, 8};
  RegionMap regions;
};

const Fixture& fixture(int regionCount) {
  switch (regionCount) {
    case 1: {  // one chip-wide region: a conventional NoC (Sec. II.A)
      static const Fixture f(
          [](const Mesh& m) { return RegionMap::blockGrid(m, 1, 1); });
      return f;
    }
    case 2: {
      static const Fixture f(&RegionMap::halves);
      return f;
    }
    case 4: {
      static const Fixture f(&RegionMap::quadrants);
      return f;
    }
    default: {
      RAIR_CHECK(regionCount == 6);
      static const Fixture f(&RegionMap::sixRegions);
      return f;
    }
  }
}

/// Memoizes a calibrated rate vector element-wise through ctx.value so a
/// file-backed cache can skip the whole computation when every element is
/// present; the vector is computed at most once.
std::vector<double> cachedRates(
    BuildContext& ctx, const std::string& keyPrefix, std::size_t n,
    const std::function<std::vector<double>()>& compute) {
  auto memo = std::make_shared<std::vector<double>>();
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = ctx.value(keyPrefix + "/app" + std::to_string(i), [&, i] {
      if (memo->empty()) *memo = compute();
      RAIR_CHECK(memo->size() == n);
      return (*memo)[i];
    });
  }
  return out;
}

/// The spec every cell starts from: the fixture, the windows and the
/// scheme; the cell adds its workload.
ScenarioSpec cellSpec(const Fixture& fx, const SimConfig& cfg,
                      const SchemeSpec& scheme) {
  return ScenarioSpec(fx.mesh, fx.regions).withConfig(cfg).withScheme(scheme);
}

// ---- Figs. 9 and 10: two half-chip apps, inter-region fraction sweep ----

const std::vector<int>& pSweep() {
  static const std::vector<int> ps = {0, 25, 50, 75, 100};
  return ps;
}

/// The shared calibration of Figs. 9/10: saturation of a half-chip app
/// running intra-region uniform traffic (both halves are congruent).
double halfSaturation(BuildContext& ctx) {
  return ctx.value("halves/halfSat", [&] {
    logTo(ctx, "calibrating half-mesh saturation...");
    AppTrafficSpec shape;
    shape.app = 0;
    return appSaturationRate(fixture(2).mesh, fixture(2).regions, shape,
                             ctx.sat);
  });
}

/// The paper's two-app halves workload at inter-region fraction `p`, with
/// loads relative to the half-mesh saturation `sat`.
std::vector<AppTrafficSpec> twoApps(double p, double sat) {
  return scenarios::twoAppInterRegion(p, scenarios::kLowLoadFraction * sat,
                                      scenarios::kHighLoadFraction * sat);
}

/// Grid shared by Figs. 9 and 10: schemes x p, cells keyed
/// "<scheme>/p<p>".
CampaignSpec twoAppSweepCampaign(const BuildContext& ctx, double sat,
                                 const std::vector<SchemeSpec>& schemes) {
  CampaignSpec spec;
  for (const SchemeSpec& s : schemes)
    for (const int p : pSweep())
      spec.add(s.label + "/p" + std::to_string(p),
               {{"scheme", s.label}, {"p", std::to_string(p)}},
               cellSpec(fixture(2), ctx.sim, s)
                   .withApps(twoApps(p / 100.0, sat)));
  return spec;
}

CampaignSpec buildFig09(BuildContext& ctx) {
  const std::vector<SchemeSpec> schemes = {schemeRoRr(), schemeRairVaOnly(),
                                           schemeRaRair()};
  const double sat = halfSaturation(ctx);
  CampaignSpec spec = twoAppSweepCampaign(ctx, sat, schemes);
  std::vector<std::string> labels;
  for (const auto& s : schemes) labels.push_back(s.label);
  spec.renderTables = [labels, sat](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Fig. 9: average packet latency vs inter-region "
                 "fraction p (MSP impact) ===\n");
    appendf(out,
            "App 0: 10%% of saturation (sat = %.3f flits/cycle/node); "
            "App 1: high load (%.0f%% of the knee; see "
            "scenarios::kHighLoadFraction)\n\n",
            sat, scenarios::kHighLoadFraction * 100);
    TextTable t({"p", "scheme", "APL App0", "APL App1", "dAPL App0 vs RO_RR",
                 "dAPL App1 vs RO_RR"});
    for (const int p : pSweep()) {
      const CellRecord& base = cells.at("RO_RR/p" + std::to_string(p));
      for (const std::string& label : labels) {
        const CellRecord& r = cells.at(label + "/p" + std::to_string(p));
        const auto row = t.addRow();
        t.set(row, 0, std::to_string(p) + "%");
        t.set(row, 1, label);
        t.setNum(row, 2, r.appApl[0]);
        t.setNum(row, 3, r.appApl[1]);
        t.setPct(row, 4, r.reductionVs(base, 0));
        t.setPct(row, 5, r.reductionVs(base, 1));
      }
    }
    out += t.toString();
    out += "\n";
    const CellRecord& base100 = cells.at("RO_RR/p100");
    const CellRecord& vasa100 = cells.at("RA_RAIR/p100");
    appendf(out,
            "Paper reference at p=100%%: RAIR_VA+SA -18.9%% App0, "
            "< +3%% App1. Measured: %s App0, %s App1.\n",
            formatPct(-vasa100.reductionVs(base100, 0)).c_str(),
            formatPct(-vasa100.reductionVs(base100, 1)).c_str());
    return out;
  };
  return spec;
}

CampaignSpec buildFig10(BuildContext& ctx) {
  SchemeSpec rrLocal = schemeRoRr();
  rrLocal.label = "RO_RR_Local";
  SchemeSpec rairLocal = schemeRaRair();
  rairLocal.label = "RAIR_Local";
  const std::vector<SchemeSpec> schemes = {
      rrLocal, rairLocal, schemeRoRr(RoutingKind::Dbar),
      schemeRaRair(RoutingKind::Dbar)};
  CampaignSpec spec = twoAppSweepCampaign(ctx, halfSaturation(ctx), schemes);
  std::vector<std::string> labels;
  for (const auto& s : schemes) labels.push_back(s.label);
  spec.renderTables = [labels](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Fig. 10: APL vs inter-region fraction p under "
                 "local-adaptive vs DBAR routing ===\n\n");
    TextTable t({"p", "scheme", "APL App0", "APL App1",
                 "dApp0 vs RO_RR_Local", "dApp1 vs RO_RR_Local"});
    for (const int p : pSweep()) {
      const CellRecord& base = cells.at(labels[0] + "/p" + std::to_string(p));
      for (const std::string& label : labels) {
        const CellRecord& r = cells.at(label + "/p" + std::to_string(p));
        const auto row = t.addRow();
        t.set(row, 0, std::to_string(p) + "%");
        t.set(row, 1, label);
        t.setNum(row, 2, r.appApl[0]);
        t.setNum(row, 3, r.appApl[1]);
        t.setPct(row, 4, r.reductionVs(base, 0));
        t.setPct(row, 5, r.reductionVs(base, 1));
      }
    }
    out += t.toString();
    out += "\n";
    const CellRecord& rrL = cells.at(labels[0] + "/p100");
    const CellRecord& rrD = cells.at(labels[2] + "/p100");
    const CellRecord& raD = cells.at(labels[3] + "/p100");
    appendf(out,
            "Paper reference at p=100%%: RAIR_DBAR vs RO_RR_Local: -24.8%% "
            "App0, -3.3%% App1 (measured %s / %s); vs RO_RR_DBAR: -12.8%% "
            "App0, +1.8%% App1 (measured %s / %s).\n",
            formatPct(-raD.reductionVs(rrL, 0)).c_str(),
            formatPct(-raD.reductionVs(rrL, 1)).c_str(),
            formatPct(-raD.reductionVs(rrD, 0)).c_str(),
            formatPct(-raD.reductionVs(rrD, 1)).c_str());
    return out;
  };
  return spec;
}

// ---- Fig. 12: DPA, two contrasting four-app quadrant scenarios ----------

/// The app shapes of Fig. 12 scenario 'a' or 'b' at the given loads.
std::vector<AppTrafficSpec> fig12Apps(char scen,
                                      const std::vector<double>& rates) {
  auto shapes = scen == 'a' ? scenarios::fourAppLowTowardHigh(0, 0)
                            : scenarios::fourAppHighTowardLow(0, 0);
  for (std::size_t a = 0; a < shapes.size(); ++a)
    shapes[a].injectionRate = rates[a];
  return shapes;
}

/// Fig. 12's calibrated loads of scenario 'a' or 'b' on the quadrant
/// fixture, memoized as "fig12/cal_<scen>/app<i>".
std::vector<double> fig12Rates(BuildContext& ctx, char scen) {
  return cachedRates(ctx, std::string("fig12/cal_") + scen, 4, [&] {
    logTo(ctx, std::string("calibrating fig12 scenario ") + scen +
                   " loads...");
    const std::array<double, 4> fractions = {
        scenarios::kLowLoadFraction, scenarios::kLowLoadFraction,
        scenarios::kLowLoadFraction, scenarios::kHighLoadFraction};
    return scenarios::calibrateLoads(fixture(4).mesh, fixture(4).regions,
                                     fig12Apps(scen, {0, 0, 0, 0}),
                                     fractions, ctx.sat);
  });
}

CampaignSpec buildFig12(BuildContext& ctx) {
  const std::vector<SchemeSpec> schemes = {
      schemeRoRr(), schemeRairNativeHigh(), schemeRairForeignHigh(),
      schemeRaRair()};

  std::map<char, std::vector<AppTrafficSpec>> apps;
  for (const char scen : {'a', 'b'})
    apps[scen] = fig12Apps(scen, fig12Rates(ctx, scen));

  CampaignSpec spec;
  for (const SchemeSpec& s : schemes)
    for (const char scen : {'a', 'b'})
      spec.add(s.label + "/" + scen,
               {{"scheme", s.label}, {"scenario", std::string(1, scen)}},
               cellSpec(fixture(4), ctx.sim, s).withApps(apps[scen]));

  std::vector<std::string> labels;
  for (const auto& s : schemes)
    if (s.policy != PolicyKind::RoundRobin) labels.push_back(s.label);
  spec.renderTables = [labels](const CellLookup& cells) {
    std::string out;
    for (const char scen : {'a', 'b'}) {
      appendf(out, "\n=== Fig. 12(%c): APL reduction vs RO_RR ===\n\n", scen);
      const CellRecord& base = cells.at(std::string("RO_RR/") + scen);
      TextTable t({"scheme", "App0", "App1", "App2", "App3", "mean"});
      for (const std::string& label : labels) {
        const CellRecord& r = cells.at(label + "/" + scen);
        const auto row = t.addRow();
        t.set(row, 0, label);
        double sum = 0;
        for (std::size_t a = 0; a < 4; ++a) {
          const double red = r.reductionVs(base, a);
          t.setPct(row, 1 + a, red);
          sum += red;
        }
        t.setPct(row, 5, sum / 4.0);
      }
      out += t.toString();
      out += "\n";
    }
    appendf(out, "Paper reference: RAIR_ForeignH wins (a), RAIR_NativeH "
                 "wins (b); RAIR (DPA) reduces mean APL by ~12.8%% in (a) "
                 "and ~12.2%% in (b), matching the better static choice in "
                 "both.\n");
    return out;
  };
  return spec;
}

// ---- Figs. 14/15: six-application generic RNoC ---------------------------

std::vector<double> sixAppRates(BuildContext& ctx, PatternKind pattern) {
  const std::string pname = patternName(pattern);
  return cachedRates(ctx, "sixapp/cal_" + pname, 6, [&] {
    logTo(ctx, "calibrating six-app loads under " + pname + " global "
               "traffic...");
    const std::vector<double> dummy(6, 0.0);
    const auto shapes = scenarios::sixAppMixed(pattern, dummy);
    return scenarios::calibrateLoads(fixture(6).mesh, fixture(6).regions,
                                     shapes, scenarios::sixAppLoadFractions(),
                                     ctx.sat);
  });
}

/// The schemes Figs. 14, 15 and 17 compare.
const std::vector<SchemeSpec>& fourSchemes() {
  static const std::vector<SchemeSpec> schemes = {
      schemeRoRr(), schemeRaDbar(), schemeRoRank(), schemeRaRair()};
  return schemes;
}

void addSixAppCells(CampaignSpec& spec, const SimConfig& cfg,
                    PatternKind pattern, const std::vector<double>& rates,
                    bool keyByPattern) {
  const std::string pname = patternName(pattern);
  const auto apps = scenarios::sixAppMixed(pattern, rates);
  for (const SchemeSpec& s : fourSchemes()) {
    std::vector<std::pair<std::string, std::string>> labels = {
        {"scheme", s.label}};
    if (keyByPattern) labels.emplace_back("pattern", pname);
    spec.add(keyByPattern ? s.label + "/" + pname : s.label,
             std::move(labels), cellSpec(fixture(6), cfg, s).withApps(apps));
  }
}

CampaignSpec buildFig14(BuildContext& ctx) {
  const auto rates = sixAppRates(ctx, PatternKind::UniformRandom);

  CampaignSpec spec;
  addSixAppCells(spec, ctx.sim, PatternKind::UniformRandom, rates,
                 /*keyByPattern=*/false);

  std::vector<std::string> labels;
  for (const auto& s : fourSchemes())
    if (s.label != "RO_RR") labels.push_back(s.label);
  spec.renderTables = [labels, rates](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Fig. 14: APL reduction vs RO_RR, six-app scenario, "
                 "uniform-random global traffic ===\n");
    out += "resolved loads (flits/cycle/node):";
    for (const double r : rates) appendf(out, " %.3f", r);
    out += "\n\n";
    const CellRecord& base = cells.at("RO_RR");
    TextTable t({"scheme", "App0", "App1", "App2", "App3", "App4", "App5",
                 "mean"});
    for (const std::string& label : labels) {
      const CellRecord& r = cells.at(label);
      const auto row = t.addRow();
      t.set(row, 0, label);
      for (std::size_t a = 0; a < 6; ++a)
        t.setPct(row, 1 + a, r.reductionVs(base, a));
      t.setPct(row, 7, r.meanReductionVs(base));
    }
    out += t.toString();
    out += "\n";
    appendf(out, "Paper reference (mean): RA_DBAR +3.4%%, RO_Rank +5.8%%, "
                 "RA_RAIR +10.1%% (reductions).\n");
    return out;
  };
  return spec;
}

CampaignSpec buildFig15(BuildContext& ctx) {
  const std::vector<PatternKind> patterns = {
      PatternKind::UniformRandom, PatternKind::Transpose,
      PatternKind::BitComplement, PatternKind::Hotspot};

  CampaignSpec spec;
  // Loads are calibrated per pattern: saturation depends strongly on the
  // global component's shape (bit-complement crosses the bisection with
  // every global packet; hotspot funnels into four nodes), so the paper's
  // "x% of saturation" levels resolve to different absolute rates under
  // each pattern. High-load apps are calibrated in context (see
  // scenarios::calibrateLoads).
  for (const PatternKind pat : patterns)
    addSixAppCells(spec, ctx.sim, pat, sixAppRates(ctx, pat),
                   /*keyByPattern=*/true);

  std::vector<std::string> labels;
  for (const auto& s : fourSchemes())
    if (s.label != "RO_RR") labels.push_back(s.label);
  spec.renderTables = [labels, patterns](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Fig. 15: mean APL reduction vs RO_RR per global "
                 "traffic pattern ===\n\n");
    TextTable t({"scheme", "UR", "TP", "BC", "HS", "avg"});
    for (const std::string& label : labels) {
      const auto row = t.addRow();
      t.set(row, 0, label);
      double sum = 0;
      for (std::size_t i = 0; i < patterns.size(); ++i) {
        const std::string pname = patternName(patterns[i]);
        const CellRecord& base = cells.at("RO_RR/" + pname);
        const double red =
            cells.at(label + "/" + pname).meanReductionVs(base);
        t.setPct(row, 1 + i, red);
        sum += red;
      }
      t.setPct(row, 5, sum / static_cast<double>(patterns.size()));
    }
    out += t.toString();
    out += "\n";
    appendf(out, "Paper reference: RA_RAIR averages ~13.4%% reduction "
                 "across patterns and is the best scheme under every "
                 "pattern.\n");
    return out;
  };
  return spec;
}

// ---- Fig. 17: PARSEC slowdown under an adversarial flood ----------------

/// Mean flit load the PARSEC workloads themselves put on the chip: each
/// request moves 1 + 5 flits end to end.
double parsecFlitLoad() {
  double sum = 0;
  for (const auto b : scenarios::fig16Benchmarks())
    sum += parsecProfile(b).requestRate * 6.0;
  return sum / static_cast<double>(scenarios::fig16Benchmarks().size());
}

CampaignSpec buildFig17(BuildContext& ctx) {
  const Fixture& fx = fixture(4);
  const int numApps = static_cast<int>(scenarios::fig16Benchmarks().size());
  const double floodSat = ctx.value("fig17/floodSat", [&] {
    logTo(ctx, "calibrating chip-wide flood saturation...");
    return findSaturationRate(
        scenarios::floodKneeProbe(fx.mesh, fx.regions, numApps, ctx.sat),
        usableCores(), ctx.sat);
  });
  // The paper floods at 0.4 flits/cycle/node while the PARSEC apps add a
  // small load on a ~0.5-capacity network: the flood takes ~80% of the
  // headroom the applications leave. An absolute 0.4 would oversaturate
  // this smaller-buffered network and every scheme would degenerate into
  // unbounded queueing, so the flood takes the same proportion of the
  // measured headroom.
  const double flood = 0.95 * std::max(0.05, floodSat - parsecFlitLoad());

  CampaignSpec spec;
  for (const SchemeSpec& s : fourSchemes()) {
    for (const bool attacked : {false, true}) {
      const std::string run = attacked ? "attack" : "base";
      spec.add(s.label + "/" + run, {{"scheme", s.label}, {"run", run}},
               cellSpec(fx, ctx.sim, s)
                   .withParsecApps(scenarios::fig16Benchmarks())
                   .withAdversarialRate(attacked ? flood : 0.0));
    }
  }

  spec.renderTables = [flood](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Fig. 17: APL slowdown under adversarial traffic "
                 "(flood = %.3f flits/cycle/node = 95%% of the headroom "
                 "left by the PARSEC load; the paper's 0.4 is the same "
                 "proportion of its larger network capacity) ===\n\n",
            flood);
    std::vector<std::string> headers = {"scheme"};
    for (const auto b : scenarios::fig16Benchmarks())
      headers.emplace_back(parsecName(b));
    headers.emplace_back("mean slowdown");
    TextTable t(std::move(headers));
    const std::size_t n = scenarios::fig16Benchmarks().size();
    for (const SchemeSpec& s : fourSchemes()) {
      const CellRecord& base = cells.at(s.label + "/base");
      const CellRecord& atk = cells.at(s.label + "/attack");
      const auto row = t.addRow();
      t.set(row, 0, s.label);
      double sum = 0;
      for (std::size_t a = 0; a < n; ++a) {
        const double slow = atk.appApl[a] / base.appApl[a];
        t.setNum(row, 1 + a, slow);
        sum += slow;
      }
      t.setNum(row, 1 + n, sum / static_cast<double>(n));
    }
    out += t.toString();
    out += "\n";
    appendf(out, "Paper reference (mean slowdown): RO_RR 1.92, RA_DBAR 1.75, "
                 "RO_Rank 1.47, RA_RAIR 1.18.\n");
    return out;
  };
  return spec;
}

// ---- Ablation: region-count scaling --------------------------------------

CampaignSpec buildAblRegions(BuildContext& ctx) {
  const std::vector<int> counts = {2, 4, 6};

  CampaignSpec spec;
  for (const int count : counts) {
    const Fixture& fx = fixture(count);
    const std::size_t n = static_cast<std::size_t>(count);
    std::vector<AppTrafficSpec> apps(n);
    for (std::size_t a = 0; a < n; ++a) {
      apps[a].app = static_cast<AppId>(a);
      apps[a].intraFraction = 0.75;
      apps[a].interFraction = 0.20;
      apps[a].mcFraction = 0.05;
    }
    const auto rates = cachedRates(
        ctx, "abl_regions/cal" + std::to_string(count), n, [&] {
          logTo(ctx, "calibrating " + std::to_string(count) +
                         "-region mixed workload loads...");
          std::vector<double> fractions(n, scenarios::kLowLoadFraction);
          fractions[1] = scenarios::kHighLoadFraction;
          return scenarios::calibrateLoads(fx.mesh, fx.regions, apps,
                                           fractions, ctx.sat);
        });
    for (std::size_t a = 0; a < n; ++a) apps[a].injectionRate = rates[a];
    for (const bool rairScheme : {false, true})
      spec.add(std::to_string(count) + (rairScheme ? "/RAIR" : "/RR"),
               {{"regions", std::to_string(count)},
                {"scheme", rairScheme ? "RA_RAIR" : "RO_RR"}},
               cellSpec(fx, ctx.sim, rairScheme ? schemeRaRair() : schemeRoRr())
                   .withApps(apps));
  }

  spec.renderTables = [counts](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Ablation: region count (mixed 75/20/5 workload, "
                 "app 1 high load, others low) ===\n\n");
    TextTable t({"regions", "RO_RR mean APL", "RAIR mean APL",
                 "RAIR reduction"});
    for (const int c : counts) {
      const CellRecord& rr = cells.at(std::to_string(c) + "/RR");
      const CellRecord& ra = cells.at(std::to_string(c) + "/RAIR");
      const auto row = t.addRow();
      t.set(row, 0, std::to_string(c));
      t.setNum(row, 1, rr.meanApl);
      t.setNum(row, 2, ra.meanApl);
      t.setPct(row, 3, ra.meanReductionVs(rr));
    }
    out += t.toString();
    out += "\n";
    appendf(out, "RAIR keeps two-flow state per router, so the benefit "
                 "must persist as regions scale (Sec. VI).\n");
    return out;
  };
  return spec;
}

// ---- Ablation: DPA hysteresis width (Sec. IV.C) --------------------------

CampaignSpec buildAblHysteresis(BuildContext& ctx) {
  // Swept over the Fig. 12 scenarios, where DPA transitions actually fire,
  // at Fig. 12's calibrated loads.
  const std::vector<double> deltas = {0.0, 0.05, 0.1, 0.2, 0.3, 0.5};

  CampaignSpec spec;
  for (const char scen : {'a', 'b'}) {
    const auto apps = fig12Apps(scen, fig12Rates(ctx, scen));
    for (const double delta : deltas) {
      const std::string d = formatNum(delta, 2);
      SchemeSpec s = schemeRaRair();
      s.rair.hysteresisDelta = delta;
      spec.add("d" + d + "/" + scen,
               {{"delta", d}, {"scenario", std::string(1, scen)}},
               cellSpec(fixture(4), ctx.sim, s).withApps(apps));
    }
  }

  spec.renderTables = [deltas](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Ablation: DPA hysteresis width Δ (RAIR mean APL on "
                 "the Fig. 12 scenarios; lower is better) ===\n\n");
    TextTable t({"delta", "mean APL (a)", "mean APL (b)", "combined"});
    for (const double delta : deltas) {
      const std::string d = "d" + formatNum(delta, 2);
      const CellRecord& ra = cells.at(d + "/a");
      const CellRecord& rb = cells.at(d + "/b");
      const auto row = t.addRow();
      t.setNum(row, 0, delta, 2);
      t.setNum(row, 1, ra.meanApl);
      t.setNum(row, 2, rb.meanApl);
      t.setNum(row, 3, (ra.meanApl + rb.meanApl) / 2.0);
    }
    out += t.toString();
    out += "\n";
    appendf(out, "Paper reference: Δ in [0.1, 0.3] works well, best around "
                 "0.2.\n");
    return out;
  };
  return spec;
}

// ---- Ablation: regional vs global VC split (Sec. VI) ---------------------

CampaignSpec buildAblVcSplit(BuildContext& ctx) {
  // 5 VCs per class = 1 escape + 4 adaptive; the number of global VCs
  // sweeps 1..3 on Fig. 14's six-app scenario at Fig. 14's loads.
  const auto apps = scenarios::sixAppMixed(
      PatternKind::UniformRandom,
      sixAppRates(ctx, PatternKind::UniformRandom));
  const std::vector<int> globals = {1, 2, 3};

  CampaignSpec spec;
  spec.add("RO_RR", {{"scheme", "RO_RR"}},
           cellSpec(fixture(6), ctx.sim, schemeRoRr()).withApps(apps));
  for (const int g : globals) {
    SimConfig cfg = ctx.sim;
    cfg.net.globalVcsPerClass = g;
    spec.add("g" + std::to_string(g),
             {{"scheme", "RA_RAIR"}, {"global_vcs", std::to_string(g)}},
             cellSpec(fixture(6), cfg, schemeRaRair()).withApps(apps));
  }

  spec.renderTables = [globals](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Ablation: regional:global VC split (5 VCs/class = 1 "
                 "escape + 4 adaptive; six-app UR scenario) ===\n\n");
    TextTable t({"regional:global", "RAIR mean APL", "reduction vs RO_RR"});
    const CellRecord& base = cells.at("RO_RR");
    for (const int g : globals) {
      const CellRecord& r = cells.at("g" + std::to_string(g));
      const auto row = t.addRow();
      t.set(row, 0, std::to_string(4 - g) + ":" + std::to_string(g));
      t.setNum(row, 1, r.meanApl);
      t.setPct(row, 2, r.meanReductionVs(base));
    }
    out += t.toString();
    out += "\n";
    appendf(out, "Paper reference: a roughly equal split (2:2) supports "
                 "generic traffic best.\n");
    return out;
  };
  return spec;
}

// ---- Substrate check: latency vs load per synthetic pattern --------------

/// One app sending chip-wide `pattern` traffic on the one-region fixture.
AppTrafficSpec patternShape(PatternKind pattern, double rate) {
  AppTrafficSpec s;
  s.app = 0;
  s.intraFraction = 0.0;
  s.interFraction = 1.0;
  s.interPattern = pattern;
  s.injectionRate = rate;
  return s;
}

CampaignSpec buildAblSaturation(BuildContext& ctx) {
  // Not a paper figure: the standard sanity check (Dally & Towles ch. 23)
  // that the substrate behaves like an on-chip network -- flat low-load
  // latency near the zero-load bound, a sharp knee, and the expected
  // pattern ordering (BC saturates early since every packet crosses the
  // bisection; HS collapses onto four hot nodes). One chip-wide region.
  const Fixture& fx = fixture(1);
  const std::vector<PatternKind> patterns = {
      PatternKind::UniformRandom, PatternKind::Transpose,
      PatternKind::BitComplement, PatternKind::Hotspot};
  const std::vector<double> rates = {0.02, 0.05, 0.10, 0.15,
                                     0.20, 0.25, 0.30, 0.35};

  std::vector<double> knees;
  for (const PatternKind pat : patterns) {
    const std::string pname = patternName(pat);
    knees.push_back(ctx.value("abl_saturation/knee_" + pname, [&] {
      logTo(ctx, "calibrating " + pname + " saturation...");
      return appSaturationRate(fx.mesh, fx.regions, patternShape(pat, 0),
                               ctx.sat);
    }));
  }

  CampaignSpec spec;
  SimConfig cfg = ctx.sim;
  // Saturated points need not drain: stop them early.
  cfg.drainLimit = std::min<Cycle>(cfg.drainLimit, 60'000);
  for (const PatternKind pat : patterns) {
    const std::string pname = patternName(pat);
    for (const double rate : rates)
      spec.add(pname + "/" + formatNum(rate, 3),
               {{"pattern", pname}, {"rate", formatNum(rate, 3)}},
               cellSpec(fx, cfg, schemeRoRr())
                   .withApps({patternShape(pat, rate)}));
  }

  spec.renderTables = [patterns, rates, knees](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Substrate check: APL vs offered load per synthetic "
                 "pattern ('sat' = run did not drain) ===\n\n");
    std::vector<std::string> headers = {"rate"};
    for (const PatternKind p : patterns) headers.emplace_back(patternName(p));
    TextTable t(std::move(headers));
    for (const double rate : rates) {
      const auto row = t.addRow();
      t.setNum(row, 0, rate, 2);
      for (std::size_t i = 0; i < patterns.size(); ++i) {
        const CellRecord& r = cells.at(std::string(patternName(patterns[i])) +
                                       "/" + formatNum(rate, 3));
        t.set(row, 1 + i, r.drained() ? formatNum(r.appApl[0], 1) : "sat");
      }
    }
    out += t.toString();
    out += "\nMeasured saturation knees (flits/cycle/node): ";
    for (std::size_t i = 0; i < patterns.size(); ++i)
      appendf(out, "%s=%.3f  ", patternName(patterns[i]), knees[i]);
    out += "\nExpected ordering: HS << BC < TP < UR.\n";
    return out;
  };
  return spec;
}

// ---- Fault-resilience sweep: degradation vs the fault-free twin ----------

/// The canned scenario set, adjusted for the link layer: outages and
/// partitions only exist on ideal links (retx replay buffers hold their
/// flits for redelivery instead), and corruption bursts only exist on retx
/// links. Router soft resets exist on both.
std::vector<std::string> faultScenarioNamesFor(LinkLayerKind kind) {
  if (kind == LinkLayerKind::Ideal)
    return {"none",   "outage",     "partition", "stall",
            "freeze", "creditloss", "reset"};
  return {"none", "corrupt", "stall", "freeze", "creditloss", "reset"};
}

/// Canonical plan of each fault scenario on the 8x8 fixture, timed
/// relative to the configured windows so fast and paper runs stress the
/// same fraction of the measurement interval.
fault::FaultPlan faultScenarioPlan(const std::string& which, const Mesh& mesh,
                                   const SimConfig& cfg) {
  fault::FaultPlan plan;
  const Cycle t0 = cfg.warmupCycles + cfg.measureCycles / 4;
  const Cycle dur = cfg.measureCycles / 4;
  if (which == "outage") {
    plan.linkOutage(t0, mesh.nodeAt({3, 3}), Dir::East, dur);
  } else if (which == "partition") {
    // Permanently isolate corner (0,0): unreachable traffic must drain
    // through the accounted drop bucket.
    const NodeId corner = mesh.nodeAt({0, 0});
    for (int d = 1; d < kNumPorts; ++d)
      if (mesh.neighbor(corner, static_cast<Dir>(d)))
        plan.add({t0, fault::FaultKind::LinkDown, corner,
                  static_cast<Dir>(d), 0, 1});
  } else if (which == "stall") {
    plan.portStall(t0, mesh.nodeAt({5, 2}), Dir::South, dur);
  } else if (which == "freeze") {
    plan.injectFreeze(t0, mesh.nodeAt({4, 4}), dur);
  } else if (which == "creditloss") {
    plan.creditLoss(t0, mesh.nodeAt({5, 5}), Dir::West, 1, 1);
  } else if (which == "reset") {
    // Router soft reset at a busy center node: on ideal links a node
    // outage, on retx links the neighbors redeliver after recovery.
    plan.softReset(t0, mesh.nodeAt({3, 4}), dur);
  } else if (which == "corrupt") {
    // Retx layer: three 8-flit corruption bursts spread across the
    // measurement window, on busy center links.
    plan.corruptFlits(t0, mesh.nodeAt({3, 3}), Dir::East, 8);
    plan.corruptFlits(t0 + dur, mesh.nodeAt({4, 4}), Dir::West, 8);
    plan.corruptFlits(t0 + 2 * dur, mesh.nodeAt({3, 4}), Dir::North, 8);
  } else {
    RAIR_CHECK_MSG(which == "none", "unknown fault scenario");
  }
  return plan;
}

CampaignSpec buildFaults(BuildContext& ctx) {
  const std::vector<SchemeSpec> schemes = {schemeRoRr(), schemeRaRair()};
  const Fixture& fx = fixture(2);
  const auto apps = twoApps(0.5, halfSaturation(ctx));

  CampaignSpec spec;
  const SimConfig& cfg = ctx.sim;
  const std::vector<std::string> scenarioNames =
      faultScenarioNamesFor(cfg.net.linkLayer);
  for (const SchemeSpec& s : schemes)
    for (const std::string& which : scenarioNames)
      spec.add(s.label + "/" + which, {{"scheme", s.label}, {"fault", which}},
               cellSpec(fx, cfg, s).withApps(apps).withFaults(
                   faultScenarioPlan(which, fx.mesh, cfg)));

  // Optional density axis (--fault-density): MTBF-style random plans at
  // 0.5x / 1x / 2x the base rate. Gated behind ctx.faultDensity > 0 so the
  // default campaign — and every record produced by it — is unchanged.
  static constexpr std::array<double, 3> kDensityMults = {0.5, 1.0, 2.0};
  std::vector<std::string> densityNames;
  if (ctx.faultDensity > 0.0) {
    for (std::size_t mi = 0; mi < kDensityMults.size(); ++mi) {
      const double rate = ctx.faultDensity * kDensityMults[mi];
      char name[32];
      std::snprintf(name, sizeof name, "density%gx", kDensityMults[mi]);
      densityNames.push_back(name);
      // One event expected every mtbf cycles across the measurement
      // window, at `rate` events per 1000 cycles.
      const Cycle mtbf =
          std::max<Cycle>(1, static_cast<Cycle>(1000.0 / rate + 0.5));
      fault::RandomPlanOptions po;
      po.meshW = fx.mesh.width();
      po.meshH = fx.mesh.height();
      po.numClasses = cfg.net.numClasses;
      po.vcsPerClass = cfg.net.vcsPerClass;
      po.windowBegin = cfg.warmupCycles + 1;
      po.windowEnd = cfg.warmupCycles + cfg.measureCycles;
      po.retxLayer = cfg.net.linkLayer == LinkLayerKind::Retx;
      po.mtbf = mtbf;
      po.allowPermanentOutage = false;
      for (std::size_t si = 0; si < schemes.size(); ++si) {
        const SchemeSpec& s = schemes[si];
        // Per-cell plan seed, decoupled from the run seed the runner
        // hands each cell: the plan is scenario identity, not RNG state.
        spec.add(s.label + "/" + name, {{"scheme", s.label}, {"fault", name}},
                 cellSpec(fx, cfg, s).withApps(apps).withFaults(
                     fault::generateRandomPlan(
                         cellSeed(ctx.campaignSeed, 0xD0'000 + mi * 8 + si),
                         po)));
      }
    }
  }

  std::vector<std::string> labels;
  for (const auto& s : schemes) labels.push_back(s.label);
  spec.renderTables = [labels, scenarioNames,
                       densityNames](const CellLookup& cells) {
    std::string out;
    appendf(out, "\n=== Fault-resilience sweep: per-scheme degradation vs "
                 "the fault-free twin (p=50 two-app workload) ===\n\n");
    TextTable t({"fault", "scheme", "mean APL", "dAPL vs none", "dropped",
                 "reroutes", "degraded cyc"});
    for (const std::string& which : scenarioNames) {
      for (const std::string& label : labels) {
        const CellRecord& base = cells.at(label + "/none");
        const CellRecord& r = cells.at(label + "/" + which);
        const auto row = t.addRow();
        t.set(row, 0, which);
        t.set(row, 1, label);
        t.setNum(row, 2, r.meanApl);
        t.setPct(row, 3, -r.meanReductionVs(base));
        t.set(row, 4,
              std::to_string(r.fault ? r.fault->droppedPackets : 0));
        t.set(row, 5, std::to_string(r.fault ? r.fault->reroutes : 0));
        t.set(row, 6,
              std::to_string(r.fault ? r.fault->degradedCycles : 0));
      }
    }
    out += t.toString();
    out += "\n";
    if (!densityNames.empty()) {
      appendf(out, "--- Fault-density axis: MTBF-style random plans ---\n\n");
      TextTable d({"density", "scheme", "mean APL", "dAPL vs none",
                   "events", "dropped", "corrupted", "retx flits"});
      for (const std::string& which : densityNames) {
        for (const std::string& label : labels) {
          const CellRecord& base = cells.at(label + "/none");
          const CellRecord& r = cells.at(label + "/" + which);
          const auto row = d.addRow();
          d.set(row, 0, which);
          d.set(row, 1, label);
          d.setNum(row, 2, r.meanApl);
          d.setPct(row, 3, -r.meanReductionVs(base));
          d.set(row, 4,
                std::to_string(r.fault ? r.fault->eventsApplied : 0));
          d.set(row, 5,
                std::to_string(r.fault ? r.fault->droppedPackets : 0));
          d.set(row, 6,
                std::to_string(r.fault ? r.fault->corruptedFlits : 0));
          d.set(row, 7,
                std::to_string(r.fault ? r.fault->retransmittedFlits : 0));
        }
      }
      out += d.toString();
      out += "\n";
    }
    appendf(out, "Faulted cells must still terminate drained: interference "
                 "reduction may not cost resilience.\n");
    return out;
  };
  return spec;
}

using Builder = CampaignSpec (*)(BuildContext&);

const std::map<std::string, Builder>& builders() {
  static const std::map<std::string, Builder> map = {
      {"fig09", &buildFig09},
      {"fig10", &buildFig10},
      {"fig12", &buildFig12},
      {"fig14", &buildFig14},
      {"fig15", &buildFig15},
      {"fig17", &buildFig17},
      {"abl_hysteresis", &buildAblHysteresis},
      {"abl_regions", &buildAblRegions},
      {"abl_saturation", &buildAblSaturation},
      {"abl_vcsplit", &buildAblVcSplit},
      {"faults", &buildFaults},
  };
  return map;
}

}  // namespace

std::vector<std::string> builtinCampaignNames() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : builders()) names.push_back(name);
  return names;
}

bool isBuiltinCampaign(const std::string& name) {
  return builders().count(name) > 0;
}

CampaignSpec buildBuiltinCampaign(const std::string& name,
                                  BuildContext& ctx) {
  const auto it = builders().find(name);
  RAIR_CHECK_MSG(it != builders().end(), "unknown built-in campaign");
  CampaignSpec spec = it->second(ctx);
  spec.name = name;
  spec.campaignSeed = ctx.campaignSeed;
  return spec;
}

}  // namespace rair::campaign

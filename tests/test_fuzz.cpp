// Fuzz outcomes pinned at fixed case seeds: every synthetic case must keep
// its draws and its outcome (oracle scan counts, verdict, drain, fault and
// link-layer totals) whatever assembles and steps its simulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/fuzz.h"

namespace rair {
namespace {

enum class FuzzMode { Ideal, FaultPlan, RetxFaultPlan };

const char* modeName(FuzzMode m) {
  switch (m) {
    case FuzzMode::Ideal: return "ideal";
    case FuzzMode::FaultPlan: return "fault-plan";
    case FuzzMode::RetxFaultPlan: return "retx+fault-plan";
  }
  return "?";
}

struct Fingerprint {
  std::uint64_t caseSeed;
  FuzzMode mode;
  /// Per scheme of allFuzzSchemes(), in order and separated by ';':
  /// scans/deadlockScans/ok/drained/droppedByFault/corrupted/retransmitted.
  const char* outcomes;
};

// Recorded before the fuzz cases were assembled through ScenarioSpec.
// Seed 0xBB0AF0F391997767 is left out: RA_DBAR trips the known
// degraded-routing U-turn defect on it under --fault-plan (ROADMAP).
const Fingerprint kFingerprints[] = {
    {0x1ull, FuzzMode::Ideal,
     "1204/20/1/1/0/0/0;1527/25/1/1/0/0/0;1204/20/1/1/0/0/0;1204/20/1/1/0/0/0;1216/20/1/1/0/0/0"},
    {0x1ull, FuzzMode::FaultPlan,
     "1240/21/1/1/17/0/0;1643/27/1/1/27/0/0;1311/22/1/1/22/0/0;1230/21/1/1/17/0/0;1286/22/1/1/22/0/0"},
    {0x1ull, FuzzMode::RetxFaultPlan,
     "1204/20/1/1/0/10/16;1533/25/1/1/0/10/15;1212/20/1/1/0/10/16;1204/20/1/1/0/10/14;1215/20/1/1/0/10/17"},
    {0x77ull, FuzzMode::Ideal,
     "967/17/1/1/0/0/0;970/17/1/1/0/0/0;967/17/1/1/0/0/0;968/17/1/1/0/0/0;967/17/1/1/0/0/0"},
    {0x77ull, FuzzMode::FaultPlan,
     "972/17/1/1/9/0/0;968/17/1/1/10/0/0;972/17/1/1/7/0/0;968/17/1/1/7/0/0;967/17/1/1/9/0/0"},
    {0x77ull, FuzzMode::RetxFaultPlan,
     "967/17/1/1/0/9/11;970/17/1/1/0/8/8;967/17/1/1/0/9/11;968/17/1/1/0/8/8;967/17/1/1/0/9/11"},
    {0x1234ull, FuzzMode::Ideal,
     "519/10/1/1/0/0/0;580/11/1/1/0/0/0;536/10/1/1/0/0/0;521/10/1/1/0/0/0;521/10/1/1/0/0/0"},
    {0x1234ull, FuzzMode::FaultPlan,
     "517/10/1/1/12/0/0;518/10/1/1/32/0/0;540/10/1/1/20/0/0;514/10/1/1/17/0/0;514/10/1/1/17/0/0"},
    {0x1234ull, FuzzMode::RetxFaultPlan,
     "521/10/1/1/45/139/140;540/10/1/1/55/139/139;527/10/1/1/43/157/169;514/10/1/1/38/193/198;520/10/1/1/45/139/138"},
    {0xF00Dull, FuzzMode::Ideal,
     "809/14/1/1/0/0/0;886/15/1/1/0/0/0;799/14/1/1/0/0/0;760/13/1/1/0/0/0;867/15/1/1/0/0/0"},
    {0xF00Dull, FuzzMode::FaultPlan,
     "736/13/1/1/91/0/0;899/16/1/1/67/0/0;821/14/1/1/83/0/0;736/13/1/1/86/0/0;799/14/1/1/86/0/0"},
    {0xF00Dull, FuzzMode::RetxFaultPlan,
     "747/13/1/1/19/125/136;900/16/1/1/34/191/201;840/15/1/1/16/125/130;774/14/1/1/20/14/20;801/14/1/1/13/215/226"},
    {0xC0FFEEull, FuzzMode::Ideal,
     "733/13/1/1/0/0/0;733/13/1/1/0/0/0;733/13/1/1/0/0/0;733/13/1/1/0/0/0;733/13/1/1/0/0/0"},
    {0xC0FFEEull, FuzzMode::FaultPlan,
     "736/13/1/1/26/0/0;736/13/1/1/28/0/0;736/13/1/1/26/0/0;736/13/1/1/28/0/0;736/13/1/1/27/0/0"},
    {0xC0FFEEull, FuzzMode::RetxFaultPlan,
     "733/13/1/1/17/60/62;733/13/1/1/17/160/163;733/13/1/1/17/60/62;733/13/1/1/18/60/61;733/13/1/1/17/60/62"},
    {0xDEADBEEFull, FuzzMode::Ideal,
     "671/12/1/1/0/0/0;671/12/1/1/0/0/0;671/12/1/1/0/0/0;671/12/1/1/0/0/0;671/12/1/1/0/0/0"},
    {0xDEADBEEFull, FuzzMode::FaultPlan,
     "687/12/1/1/7/0/0;687/12/1/1/7/0/0;687/12/1/1/7/0/0;687/12/1/1/7/0/0;687/12/1/1/7/0/0"},
    {0xDEADBEEFull, FuzzMode::RetxFaultPlan,
     "671/12/1/1/6/37/38;671/12/1/1/6/37/38;671/12/1/1/6/37/38;671/12/1/1/6/37/38;671/12/1/1/6/37/38"},
    {0x5EED5EEDull, FuzzMode::Ideal,
     "330/7/1/1/0/0/0;330/7/1/1/0/0/0;330/7/1/1/0/0/0;330/7/1/1/0/0/0;330/7/1/1/0/0/0"},
    {0x5EED5EEDull, FuzzMode::FaultPlan,
     "488/9/1/1/32/0/0;488/9/1/1/32/0/0;488/9/1/1/32/0/0;488/9/1/1/32/0/0;488/9/1/1/32/0/0"},
    {0x5EED5EEDull, FuzzMode::RetxFaultPlan,
     "349/7/1/1/16/144/152;349/7/1/1/16/144/148;349/7/1/1/16/144/152;349/7/1/1/16/144/152;349/7/1/1/16/144/152"},
    {0x123456789ABCDEFull, FuzzMode::Ideal,
     "2315/38/1/1/0/0/0;2326/38/1/1/0/0/0;2327/38/1/1/0/0/0;2315/38/1/1/0/0/0;2274/37/1/1/0/0/0"},
    {0x123456789ABCDEFull, FuzzMode::FaultPlan,
     "4340/69/1/1/23/0/0;4303/69/1/1/23/0/0;3826/61/1/1/23/0/0;4340/69/1/1/23/0/0;4120/66/1/1/19/0/0"},
    {0x123456789ABCDEFull, FuzzMode::RetxFaultPlan,
     "2180/36/1/1/82/85/96;2155/35/1/1/85/59/65;2260/37/1/1/83/50/54;2180/36/1/1/82/85/96;2240/36/1/1/86/48/56"},
};

std::string outcomesOf(std::uint64_t caseSeed, FuzzMode mode,
                       std::size_t numSchemes) {
  check::FuzzOptions opts;
  opts.schemes = check::allFuzzSchemes();
  opts.shrink = false;
  opts.faultPlan = mode != FuzzMode::Ideal;
  if (mode == FuzzMode::RetxFaultPlan) opts.linkLayer = LinkLayerKind::Retx;
  const auto results = check::runFuzzSeed(caseSeed, opts);
  // Only the synthetic case is pinned: results after the first
  // numSchemes belong to cases derived from the same seed.
  EXPECT_GE(results.size(), numSchemes);
  std::string out;
  for (std::size_t i = 0; i < numSchemes && i < results.size(); ++i) {
    const check::FuzzCaseResult& r = results[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s%llu/%llu/%d/%d/%llu/%llu/%llu",
                  i == 0 ? "" : ";",
                  static_cast<unsigned long long>(r.report.scans),
                  static_cast<unsigned long long>(r.report.deadlockScans),
                  r.report.ok() ? 1 : 0, r.drained ? 1 : 0,
                  static_cast<unsigned long long>(r.droppedByFault),
                  static_cast<unsigned long long>(r.corruptedFlits),
                  static_cast<unsigned long long>(r.retransmittedFlits));
    out += buf;
  }
  return out;
}

TEST(Fuzz, OutcomesMatchRecordedFingerprints) {
  const std::size_t numSchemes = check::allFuzzSchemes().size();
  ASSERT_EQ(std::size(kFingerprints), 24u);
  for (const Fingerprint& f : kFingerprints) {
    EXPECT_EQ(outcomesOf(f.caseSeed, f.mode, numSchemes), f.outcomes)
        << "case seed 0x" << std::hex << f.caseSeed << " ("
        << modeName(f.mode) << ")";
  }
}

}  // namespace
}  // namespace rair

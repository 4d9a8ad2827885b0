#include "sim/scheme.h"

#include <gtest/gtest.h>

#include "core/rair_policy.h"
#include "policy/stc.h"

namespace rair {
namespace {

TEST(Scheme, PaperLineupLabels) {
  EXPECT_EQ(schemeRoRr().label, "RO_RR");
  EXPECT_EQ(schemeRoRr(RoutingKind::Dbar).label, "RO_RR_DBAR");
  EXPECT_EQ(schemeRoRank().label, "RO_Rank");
  EXPECT_EQ(schemeRaDbar().label, "RA_DBAR");
  EXPECT_EQ(schemeRaRair().label, "RA_RAIR");
  EXPECT_EQ(schemeRaRair(RoutingKind::Dbar).label, "RAIR_DBAR");
  EXPECT_EQ(schemeRairVaOnly().label, "RAIR_VA");
  EXPECT_EQ(schemeRairNativeHigh().label, "RAIR_NativeH");
  EXPECT_EQ(schemeRairForeignHigh().label, "RAIR_ForeignH");
}

TEST(Scheme, ByLabelFindsEveryLabelledScheme) {
  const std::vector<SchemeSpec> all = labelledSchemes();
  ASSERT_EQ(all.size(), 10u);
  for (const SchemeSpec& s : all) {
    const auto found = schemeByLabel(s.label);
    ASSERT_TRUE(found.has_value()) << s.label;
    EXPECT_EQ(found->label, s.label);
    EXPECT_EQ(found->routing, s.routing) << s.label;
    EXPECT_EQ(found->policy, s.policy) << s.label;
    EXPECT_EQ(found->rair.dpaMode, s.rair.dpaMode) << s.label;
    EXPECT_EQ(found->rair.applyAtSa, s.rair.applyAtSa) << s.label;
  }
  EXPECT_EQ(schemeByLabel("RO_RR_XY")->routing, RoutingKind::Xy);
  EXPECT_FALSE(schemeByLabel("RA_RAIR ").has_value());
  EXPECT_FALSE(schemeByLabel("ra_rair").has_value());
  EXPECT_FALSE(schemeByLabel("").has_value());
}

TEST(Scheme, OnlyRairNeedsPartition) {
  EXPECT_FALSE(schemeRoRr().needsRairPartition());
  EXPECT_FALSE(schemeRoRank().needsRairPartition());
  EXPECT_FALSE(schemeRaDbar().needsRairPartition());
  EXPECT_TRUE(schemeRaRair().needsRairPartition());
  EXPECT_TRUE(schemeRairNativeHigh().needsRairPartition());
}

TEST(Scheme, DbarSchemesUseDbarRouting) {
  EXPECT_EQ(schemeRaDbar().routing, RoutingKind::Dbar);
  EXPECT_EQ(schemeRaRair(RoutingKind::Dbar).routing, RoutingKind::Dbar);
  EXPECT_EQ(schemeRoRr().routing, RoutingKind::LocalAdaptive);
}

TEST(Scheme, MakePolicyTypes) {
  const std::vector<double> intensities = {0.1, 0.9};
  auto rr = makePolicy(schemeRoRr(), intensities);
  EXPECT_STREQ(rr->name(), "RO_RR");
  auto rank = makePolicy(schemeRoRank(), intensities);
  EXPECT_STREQ(rank->name(), "RO_Rank");
  auto rairP = makePolicy(schemeRaRair(), intensities);
  EXPECT_STREQ(rairP->name(), "RA_RAIR");
}

TEST(Scheme, StcOracleRanksLowIntensityFirst) {
  const std::vector<double> intensities = {0.5, 0.1, 0.3};
  auto p = makePolicy(schemeRoRank(), intensities);
  auto* stc = dynamic_cast<StcRankPolicy*>(p.get());
  ASSERT_NE(stc, nullptr);
  EXPECT_EQ(stc->rankOf(1), 0);  // lightest app -> best rank
  EXPECT_EQ(stc->rankOf(2), 1);
  EXPECT_EQ(stc->rankOf(0), 2);
}

TEST(Scheme, RairAblationConfigsPropagate) {
  auto va = schemeRairVaOnly();
  EXPECT_TRUE(va.rair.applyAtVa);
  EXPECT_FALSE(va.rair.applyAtSa);
  auto nat = schemeRairNativeHigh();
  EXPECT_EQ(nat.rair.dpaMode, DpaMode::NativeHigh);
  auto fgn = schemeRairForeignHigh();
  EXPECT_EQ(fgn.rair.dpaMode, DpaMode::ForeignHigh);
  auto full = schemeRaRair();
  EXPECT_EQ(full.rair.dpaMode, DpaMode::Dynamic);
}

}  // namespace
}  // namespace rair

// RO_Rank: an idealized STC [Das et al., MICRO'09] baseline.
//
// STC ranks concurrently running applications by network intensity (L1
// misses per instruction in the original; injection intensity here) and
// prioritizes packets of non-intensive applications. To bound starvation,
// packets are grouped into time batches and older batches strictly outrank
// younger ones, regardless of application rank.
//
// Following the paper's evaluation (Sec. V.E), this implementation is the
// *optimized* STC: the ranking is an oracle — scenarios install the true
// intensity ordering rather than estimating it online — so RO_Rank is an
// upper bound on what STC could achieve. It remains region-oblivious: it
// cannot distinguish regional from global traffic, and batching may
// prioritize old adversarial packets over younger normal ones (the paper's
// Fig. 17 discussion).
#pragma once

#include <vector>

#include "policy/policy.h"

namespace rair {

class StcRankPolicy final : public ArbiterPolicy {
 public:
  /// @param ranks  ranks[app] = rank of that application, 0 = highest
  ///               priority (least network-intensive). Apps not covered
  ///               get the worst rank.
  /// @param batchPeriod  batch width in cycles (original STC uses epochs
  ///               in the thousands of cycles).
  explicit StcRankPolicy(std::vector<int> ranks, Cycle batchPeriod = 16000);

  const char* name() const override { return "RO_Rank"; }

  std::uint64_t priority(ArbStage stage, const ArbCandidate& cand,
                         const PolicyState* state) const override;

  /// Builds the oracle ranking from per-app injection intensities
  /// (flits/cycle/node): lower intensity -> better (smaller) rank.
  static std::vector<int> ranksFromIntensities(
      const std::vector<double>& intensities);

  Cycle batchPeriod() const { return batchPeriod_; }
  int rankOf(AppId app) const;

 private:
  std::vector<int> ranks_;
  int worstRank_;
  Cycle batchPeriod_;
};

}  // namespace rair

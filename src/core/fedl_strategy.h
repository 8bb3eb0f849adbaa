// FedL (Algorithm 1): the full framework — online learner for fractional
// decisions, RDCS (Algorithm 2) to round them, and feasibility repair so the
// committed integer selection always satisfies the per-epoch constraints the
// rounding could have perturbed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "core/fairness.h"
#include "core/online_learner.h"
#include "core/rounding.h"
#include "core/strategy.h"

namespace fedl::core {

struct FedLConfig {
  LearnerConfig learner;
  std::size_t l_max = 8;  // cap on DANE iterations per epoch (= ⌈ρ_max⌉)
  // Use independent rounding instead of RDCS (A1 ablation only).
  bool independent_rounding = false;
  // Long-term selection fairness (the paper's future-work extension):
  // under-served clients get their fractions boosted before rounding.
  FairnessConfig fairness;
  // Ignored: every decision is kept until its epoch is observed. The field
  // stays only because perfbench/driver.cpp still assigns it.
  std::size_t fraction_history = 1;
  std::uint64_t seed = 23;
};

class FedLStrategy : public SelectionStrategy {
 public:
  FedLStrategy(std::size_t num_clients, FedLConfig cfg);

  Decision decide(const sim::EpochContext& ctx,
                  const BudgetLedger& budget) override;
  void observe(const sim::EpochContext& ctx, const Decision& decision,
               const fl::EpochOutcome& outcome) override;
  std::string name() const override {
    std::string n = "FedL";
    if (cfg_.independent_rounding) n += "-Ind";
    if (cfg_.fairness.enabled) n += "-Fair";
    return n;
  }

  const OnlineLearner& learner() const { return learner_; }
  // Fractional decision of the last decide() call (for regret analysis).
  const FractionalDecision& last_fraction() const { return last_frac_; }
  // Participation counts per client (offered / selected, fairness.h) and
  // the number of epochs recorded, read from the learner's pool.
  const ClientStatePool& participation() const { return learner_.pool(); }

 private:
  FedLConfig cfg_;
  OnlineLearner learner_;
  Rng rng_;
  FractionalDecision last_frac_;
  // Each decided epoch's fractional decision, until observe() consumes it.
  // The event-driven harness resolves cohorts out of order, long after
  // newer decides, so an outcome must find its own epoch's fractions.
  std::map<std::size_t, FractionalDecision> unobserved_;

  // Grow-only per-epoch scratch. Rounding works on a copy of the fractions
  // (observe() consumes the fractional x̃) via the in-place subset API.
  std::vector<double> rounded_x_;          // 0/1 after rounding + repair
  std::vector<std::size_t> identity_idx_;  // 0..k-1 index list for rounding
  std::vector<std::size_t> order_;         // fraction-descending ranking
  std::vector<std::size_t> cost_order_;    // cost ranking for repair
  std::vector<unsigned char> target_;      // fallback selection flags
  std::vector<std::size_t> picked_;        // selected candidate positions
  RdcsScratch rdcs_scratch_;
};

}  // namespace fedl::core

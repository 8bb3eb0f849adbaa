// FedL (Algorithm 1): the full framework — online learner for fractional
// decisions, RDCS (Algorithm 2) to round them, and feasibility repair so the
// committed integer selection always satisfies the per-epoch constraints the
// rounding could have perturbed.
#pragma once

#include <cstdint>
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
  // Fractional decisions retained for delayed feedback. Lockstep execution
  // observes epoch t's outcome before deciding t+1, so 1 (the default)
  // suffices; the event-driven harness resolves cohorts out of order while
  // newer decides overwrite last_fraction(), so it raises this to cover the
  // deepest straggler overlap. observe() matches the outcome to the
  // decision of the same epoch; with history 1 that lookup degenerates to
  // the previous behavior exactly.
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
  // Participation counts per client (ClientLearnerState::offered/selected)
  // and the number of epochs recorded, read from the learner's pool.
  const ClientStatePool& participation() const { return learner_.pool(); }

 private:
  // Remembers last_frac_ under this epoch so a delayed observe() can find
  // the decision its outcome belongs to.
  void record_fraction(std::size_t epoch);

  FedLConfig cfg_;
  OnlineLearner learner_;
  Rng rng_;
  FractionalDecision last_frac_;
  // Ring of (epoch, fractional decision) pairs, capacity fraction_history.
  std::vector<std::pair<std::size_t, FractionalDecision>> frac_history_;
  std::size_t frac_next_ = 0;

  // Grow-only per-epoch scratch. Rounding works on a copy of the fractions
  // (observe() consumes the fractional x̃) via the in-place subset API.
  std::vector<double> rounded_x_;          // 0/1 after rounding + repair
  std::vector<std::size_t> identity_idx_;  // 0..k-1 index list for rounding
  std::vector<std::size_t> order_;         // fraction-descending ranking
  std::vector<std::size_t> cost_order_;    // cost ranking for repair
  std::vector<unsigned char> target_;      // fallback selection flags
  RdcsScratch rdcs_scratch_;
};

}  // namespace fedl::core

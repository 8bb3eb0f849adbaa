// Multi-armed-bandit client selection (Xia et al. [30]) — an additional
// learned baseline beyond the paper's roster. Each client is an arm whose
// reward is its measured per-iteration loss reduction discounted by its
// latency; selection picks the n arms with the highest UCB index
//   r̄_k + α·sqrt(2 ln t / N_k),
// which explores rarely-tried clients and exploits the historically useful
// ones. Unlike FedL it neither adapts the iteration count nor reasons about
// the budget beyond the shared per-epoch cap.
#pragma once

#include <cstdint>
#include <vector>

#include "core/baselines.h"
#include "core/strategy.h"

namespace fedl::core {

struct UcbConfig {
  BaselineConfig base;
  double exploration = 1.0;  // α in the UCB index
};

class UcbStrategy : public SelectionStrategy {
 public:
  UcbStrategy(std::size_t num_clients, UcbConfig cfg);

  Decision decide(const sim::EpochContext& ctx,
                  const BudgetLedger& budget) override;
  void observe(const sim::EpochContext& ctx, const Decision& decision,
               const fl::EpochOutcome& outcome) override;
  std::string name() const override { return "UCB"; }

  double mean_reward(std::size_t client) const;
  std::size_t pulls(std::size_t client) const;

 private:
  UcbConfig cfg_;
  std::size_t epoch_ = 0;
  std::vector<double> reward_sum_;
  std::vector<std::size_t> pulls_;
};

}  // namespace fedl::core

// The paper's comparison schemes (§6.1).
//
//  * FedAvg [19]: the server selects participants uniformly at random.
//  * FedCS [21]: resource-aware — selects as many clients as possible whose
//    round latency fits a fixed deadline.
//  * Pow-d [5]: power-of-choice — samples d candidates, keeps the n with the
//    largest (estimated) local loss.
//
// All baselines are budget-aware in the same way FedL is (they stop renting
// when the ledger runs dry) but none adapts the iteration count: they use a
// fixed l per epoch, as in their original papers.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "core/strategy.h"

namespace fedl::core {

struct BaselineConfig {
  std::size_t n_select = 5;      // participants per epoch
  std::size_t iterations = 3;    // fixed l_t
  double pacing = 1.5;           // per-epoch spend cap multiplier (c̄·n)
  std::uint64_t seed = 29;
};

// Shared budget pacing: largest affordable per-epoch spend for this scheme.
double per_epoch_cap(const sim::EpochContext& ctx, const BudgetLedger& budget,
                     std::size_t n, double pacing);

class FedAvgStrategy : public SelectionStrategy {
 public:
  explicit FedAvgStrategy(BaselineConfig cfg);
  Decision decide(const sim::EpochContext& ctx,
                  const BudgetLedger& budget) override;
  std::string name() const override { return "FedAvg"; }

 private:
  BaselineConfig cfg_;
  Rng rng_;
};

struct FedCsConfig {
  BaselineConfig base;
  // Per-epoch deadline (s). Clients are added fastest-first while the round
  // (l fixed iterations) still fits the deadline.
  double deadline_s = 50.0;
};

class FedCsStrategy : public SelectionStrategy {
 public:
  explicit FedCsStrategy(FedCsConfig cfg);
  Decision decide(const sim::EpochContext& ctx,
                  const BudgetLedger& budget) override;
  std::string name() const override { return "FedCS"; }

 private:
  FedCsConfig cfg_;
  Rng rng_;
};

struct PowDConfig {
  BaselineConfig base;
  std::size_t d = 20;  // candidate sample size (d ≥ n_select)
};

class PowDStrategy : public SelectionStrategy {
 public:
  PowDStrategy(std::size_t num_clients, PowDConfig cfg);
  Decision decide(const sim::EpochContext& ctx,
                  const BudgetLedger& budget) override;
  void observe(const sim::EpochContext& ctx, const Decision& decision,
               const fl::EpochOutcome& outcome) override;
  std::string name() const override { return "Pow-d"; }

 private:
  PowDConfig cfg_;
  Rng rng_;
  std::vector<double> loss_est_;  // last known local loss per client
};

}  // namespace fedl::core

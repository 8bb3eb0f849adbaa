// Long-term budget accounting — constraint (3a) and the stopping-time range
//   C/(n·max c) ≤ T_C ≤ C/(n·min c)
// that the reformulation uses to bound the FL life cycle — and the one
// per-epoch budget rule every strategy, the regret comparator and the
// harness read it through:
//  * the paced spend cap (5a): min(kPacing·n·c̄_t, remaining);
//  * the affordable floor (3b)/(5b): how many of the n cheapest posted
//    costs the remaining budget can rent;
//  * the fit of an integral selection under the cap, never below a floor.
#pragma once

#include <cstddef>
#include <vector>

namespace fedl::sim {
struct EpochContext;
}  // namespace fedl::sim

namespace fedl::core {

// Per-epoch spend multiplier: each epoch may spend about kPacing·n·c̄_t, so
// the horizon lands inside the paper's T_C range.
inline constexpr double kPacing = 1.5;

struct HorizonBounds {
  double lower = 0.0;  // C / (n · max cost)
  double upper = 0.0;  // C / (n · min cost)
};

class BudgetLedger {
 public:
  explicit BudgetLedger(double total);

  double total() const { return total_; }
  double spent() const { return spent_; }
  double remaining() const { return total_ - spent_; }
  bool exhausted() const { return remaining() <= 0.0; }

  // Records an epoch's rent. Constraint (3a) is a *hard* budget: the
  // selection layer repairs every integral decision back under the
  // remaining budget before committing, so an overdraw here is a bug in the
  // caller — charge() FEDL_CHECKs (up to floating-point slack) that spent_
  // never exceeds total_ rather than silently spending past it.
  void charge(double amount);

  // Paper's T_C range for minimum participation n and the observed cost
  // bounds. Throws ConfigError on degenerate inputs.
  static HorizonBounds horizon_bounds(double budget, std::size_t n,
                                      double min_cost, double max_cost);

 private:
  double total_;
  double spent_ = 0.0;
};

// The paced per-epoch cap: min(kPacing·n·c̄_t, remaining), with c̄_t the mean
// posted cost of E_t summed in E_t order; 0 when E_t is empty.
double paced_cap(const sim::EpochContext& ctx, std::size_t n,
                 double remaining);

// The longest prefix of the n cheapest costs (all of them when n exceeds
// their number) whose ascending-order sum fits `remaining`: its length and
// that sum. A count of 0 means not even the cheapest client is affordable.
struct AffordableFloor {
  std::size_t count = 0;
  double cost = 0.0;
};
// Reorders `costs` (caller scratch).
AffordableFloor affordable_floor(std::vector<double>& costs, std::size_t n,
                                 double remaining);

// Fits the 0/1 selection `chosen` (parallel to `cost`) under `cap`: drops
// chosen candidates most-expensive-first (ties by index) while more than
// `floor` remain; if the selection is still over the cap, takes the `floor`
// cheapest candidates (ties by index) instead, or nobody when even they
// exceed it. Returns how many entries of `chosen` flipped. `order` is
// caller scratch, untouched when the selection already fits.
std::size_t fit_under_cap(std::vector<double>& chosen,
                          const std::vector<double>& cost, double cap,
                          std::size_t floor, std::vector<std::size_t>& order);

}  // namespace fedl::core

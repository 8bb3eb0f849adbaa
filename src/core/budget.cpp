#include "core/budget.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "sim/environment.h"

namespace fedl::core {

BudgetLedger::BudgetLedger(double total) : total_(total) {
  FEDL_CHECK_GT(total, 0.0) << "budget must be positive";
}

void BudgetLedger::charge(double amount) {
  FEDL_CHECK_GE(amount, 0.0);
  // Relative slack absorbs accumulation error from summing per-client rents;
  // anything beyond it is a real overdraw and must fail loudly.
  const double slack = 1e-9 * (1.0 + total_);
  FEDL_CHECK_LE(spent_ + amount, total_ + slack)
      << "budget overdraw: spent " << spent_ << " + charge " << amount
      << " exceeds total " << total_;
  spent_ += amount;
}

HorizonBounds BudgetLedger::horizon_bounds(double budget, std::size_t n,
                                           double min_cost, double max_cost) {
  if (budget <= 0.0 || n == 0 || min_cost <= 0.0 || max_cost < min_cost)
    throw ConfigError("horizon_bounds: invalid budget/n/cost range");
  HorizonBounds hb;
  hb.lower = budget / (static_cast<double>(n) * max_cost);
  hb.upper = budget / (static_cast<double>(n) * min_cost);
  return hb;
}

double paced_cap(const sim::EpochContext& ctx, std::size_t n,
                 double remaining) {
  if (ctx.available.empty()) return 0.0;
  double mean_cost = 0.0;
  for (const auto& o : ctx.available) mean_cost += o.cost;
  mean_cost /= static_cast<double>(ctx.available.size());
  return std::min(kPacing * static_cast<double>(n) * mean_cost, remaining);
}

AffordableFloor affordable_floor(std::vector<double>& costs, std::size_t n,
                                 double remaining) {
  const auto cheapest =
      costs.begin() + static_cast<std::ptrdiff_t>(std::min(n, costs.size()));
  std::partial_sort(costs.begin(), cheapest, costs.end());
  AffordableFloor floor;
  double prefix = 0.0;
  for (auto it = costs.begin(); it != cheapest; ++it) {
    prefix += *it;
    if (prefix > remaining) break;
    floor.cost = prefix;
    ++floor.count;
  }
  return floor;
}

std::size_t fit_under_cap(std::vector<double>& chosen,
                          const std::vector<double>& cost, double cap,
                          std::size_t floor, std::vector<std::size_t>& order) {
  FEDL_CHECK_EQ(chosen.size(), cost.size());
  const std::size_t k = chosen.size();
  std::size_t count = 0;
  double spend = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (chosen[i] <= 0.5) continue;
    ++count;
    spend += cost[i];
  }
  if (spend <= cap) return 0;

  // Most expensive first; stable, so ties go by index.
  order.resize(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return cost[a] > cost[b];
  });
  std::size_t flips = 0;
  for (std::size_t i : order) {
    if (spend <= cap || count <= floor) break;
    if (chosen[i] <= 0.5) continue;
    chosen[i] = 0.0;
    --count;
    spend -= cost[i];
    ++flips;
  }
  if (spend <= cap) return flips;

  // At the floor and still over: the floor cheapest (the stable re-sort
  // keeps ties by index), or nobody when even they do not fit.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return cost[a] < cost[b];
  });
  const std::size_t take = std::min(floor, k);
  double floor_cost = 0.0;
  for (std::size_t oi = 0; oi < take; ++oi) floor_cost += cost[order[oi]];
  const double keep = floor_cost <= cap ? 1.0 : 0.0;
  for (std::size_t oi = 0; oi < k; ++oi) {
    const double now = oi < take ? keep : 0.0;
    double& c = chosen[order[oi]];
    if ((c > 0.5) != (now > 0.5)) ++flips;
    c = now;
  }
  return flips;
}

}  // namespace fedl::core

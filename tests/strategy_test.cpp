// Tests for the selection strategies: the paper's baselines (FedAvg, FedCS,
// Pow-d) and FedL's rounding + feasibility repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/baselines.h"
#include "core/fedl_strategy.h"

namespace fedl::core {
namespace {

sim::EpochContext make_ctx(std::size_t k, double cost_step = 1.0) {
  sim::EpochContext ctx;
  ctx.epoch = 1;
  for (std::size_t i = 0; i < k; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = 0.5 + cost_step * static_cast<double>(i);
    o.data_size = 10 + i;
    o.tau_loc = 0.2 + 0.1 * static_cast<double>(i);
    o.tau_cm_est = 0.1;
    ctx.available.push_back(o);
  }
  return ctx;
}

bool all_available(const Decision& d, const sim::EpochContext& ctx) {
  return std::all_of(d.selected.begin(), d.selected.end(),
                     [&](std::size_t id) { return ctx.is_available(id); });
}

double decision_cost(const Decision& d, const sim::EpochContext& ctx) {
  double c = 0.0;
  for (std::size_t id : d.selected) c += ctx.find(id)->cost;
  return c;
}

BaselineConfig base_cfg() {
  BaselineConfig cfg;
  cfg.n_select = 3;
  cfg.iterations = 2;
  return cfg;
}

// --- FedAvg ------------------------------------------------------------------

TEST(FedAvg, SelectsRequestedCountWhenAffordable) {
  FedAvgStrategy s(base_cfg());
  BudgetLedger budget(1000.0);
  const auto ctx = make_ctx(10);
  const auto d = s.decide(ctx, budget);
  EXPECT_EQ(d.selected.size(), 3u);
  EXPECT_EQ(d.num_iterations, 2u);
  EXPECT_TRUE(all_available(d, ctx));
  // No duplicates.
  std::set<std::size_t> uniq(d.selected.begin(), d.selected.end());
  EXPECT_EQ(uniq.size(), d.selected.size());
}

TEST(FedAvg, SelectionIsRandomAcrossEpochs) {
  FedAvgStrategy s(base_cfg());
  BudgetLedger budget(1000.0);
  const auto ctx = make_ctx(12);
  std::set<std::vector<std::size_t>> seen;
  for (int t = 0; t < 20; ++t) seen.insert(s.decide(ctx, budget).selected);
  EXPECT_GT(seen.size(), 3u);
}

TEST(FedAvg, RespectsBudget) {
  FedAvgStrategy s(base_cfg());
  BudgetLedger tiny(1.2);
  const auto ctx = make_ctx(10);
  for (int t = 0; t < 20; ++t) {
    const auto d = s.decide(ctx, tiny);
    EXPECT_LE(decision_cost(d, ctx), tiny.remaining() + 1e-9);
  }
}

TEST(FedAvg, FewerAvailableThanRequested) {
  FedAvgStrategy s(base_cfg());
  BudgetLedger budget(100.0);
  const auto ctx = make_ctx(2);
  const auto d = s.decide(ctx, budget);
  EXPECT_EQ(d.selected.size(), 2u);
}

TEST(FedAvg, EmptyContext) {
  FedAvgStrategy s(base_cfg());
  BudgetLedger budget(100.0);
  sim::EpochContext ctx;
  EXPECT_TRUE(s.decide(ctx, budget).selected.empty());
}

// E_t whose cheapest client (0.3) is not the first: only the fit's fallback
// can select it when a random pick lands on anyone else.
sim::EpochContext cheapest_in_middle_ctx() {
  sim::EpochContext ctx = make_ctx(5);
  const double costs[] = {5.0, 4.0, 0.3, 6.0, 7.0};
  for (std::size_t i = 0; i < 5; ++i) ctx.available[i].cost = costs[i];
  return ctx;
}

TEST(FedAvg, OverCapFallsBackToCheapestClientOfEt) {
  BaselineConfig cfg = base_cfg();
  cfg.n_select = 1;
  FedAvgStrategy s(cfg);
  BudgetLedger budget(0.4);  // cap 0.4: only client 2 fits
  const auto ctx = cheapest_in_middle_ctx();
  for (int t = 0; t < 20; ++t)
    EXPECT_EQ(s.decide(ctx, budget).selected, std::vector<std::size_t>{2});
}

TEST(FedAvg, OverCapWithNobodyAffordableSelectsNobody) {
  FedAvgStrategy s(base_cfg());
  BudgetLedger budget(0.2);  // below the cheapest cost
  const auto ctx = cheapest_in_middle_ctx();
  for (int t = 0; t < 20; ++t)
    EXPECT_TRUE(s.decide(ctx, budget).selected.empty());
}

// --- FedCS -------------------------------------------------------------------

TEST(FedCs, AdmitsOnlyClientsWithinDeadline) {
  FedCsConfig cfg;
  cfg.base = base_cfg();
  cfg.deadline_s = 2 * 0.45;  // admits taus <= 0.45: clients 0 and 1
  FedCsStrategy s(cfg);
  BudgetLedger budget(1000.0);
  const auto ctx = make_ctx(10);
  const auto d = s.decide(ctx, budget);
  for (std::size_t id : d.selected) {
    const auto* obs = ctx.find(id);
    EXPECT_LE(cfg.base.iterations * (obs->tau_loc + obs->tau_cm_est),
              cfg.deadline_s + 1e-9);
  }
  EXPECT_FALSE(d.selected.empty());
}

TEST(FedCs, GenerousDeadlineAdmitsManyUnderCap) {
  FedCsConfig cfg;
  cfg.base = base_cfg();
  cfg.base.n_select = 8;  // cap 1.5·8·4 = 48 over a cost sum of 32
  cfg.deadline_s = 1e6;
  FedCsStrategy s(cfg);
  BudgetLedger budget(1e6);
  const auto ctx = make_ctx(8);
  const auto d = s.decide(ctx, budget);
  EXPECT_EQ(d.selected.size(), 8u);  // "as many clients as possible"
}

TEST(FedCs, TightDeadlineStillPicksFastestAffordable) {
  FedCsConfig cfg;
  cfg.base = base_cfg();
  cfg.deadline_s = 1e-6;  // nobody fits
  FedCsStrategy s(cfg);
  BudgetLedger budget(1000.0);
  const auto ctx = make_ctx(5);
  const auto d = s.decide(ctx, budget);
  ASSERT_EQ(d.selected.size(), 1u);
  EXPECT_EQ(d.selected[0], 0u);  // the fastest
}

// --- Pow-d -------------------------------------------------------------------

TEST(PowD, PrefersHighLossClients) {
  PowDConfig cfg;
  cfg.base = base_cfg();
  cfg.base.n_select = 2;
  cfg.d = 8;
  PowDStrategy s(8, cfg);
  BudgetLedger budget(1000.0);
  const auto ctx = make_ctx(8);

  // Teach the strategy that clients 6 and 7 have low loss.
  Decision dec;
  dec.selected = {6, 7};
  fl::EpochOutcome out;
  out.selected = {6, 7};
  out.client_loss_reduction = {0.1, 0.1};
  out.train_loss_selected = 0.01;
  out.train_loss_all = 2.0;
  s.observe(ctx, dec, out);

  // With d = all clients, the low-loss pair must not be chosen.
  const auto d = s.decide(ctx, budget);
  for (std::size_t id : d.selected) {
    EXPECT_NE(id, 6u);
    EXPECT_NE(id, 7u);
  }
}

TEST(PowD, SelectsAtMostN) {
  PowDConfig cfg;
  cfg.base = base_cfg();
  cfg.d = 5;
  PowDStrategy s(10, cfg);
  BudgetLedger budget(1000.0);
  const auto d = s.decide(make_ctx(10), budget);
  EXPECT_LE(d.selected.size(), cfg.base.n_select);
  EXPECT_GE(d.selected.size(), 1u);
}

TEST(PowD, RequiresDGreaterEqualN) {
  PowDConfig cfg;
  cfg.base = base_cfg();
  cfg.base.n_select = 5;
  cfg.d = 3;
  EXPECT_THROW(PowDStrategy(10, cfg), CheckError);
}

TEST(PowD, OverCapFallsBackToCheapestClientOfEt) {
  PowDConfig cfg;
  cfg.base = base_cfg();
  cfg.base.n_select = 1;
  cfg.d = 2;
  PowDStrategy s(5, cfg);
  BudgetLedger budget(0.4);  // cap 0.4: only client 2 fits
  const auto ctx = cheapest_in_middle_ctx();
  for (int t = 0; t < 20; ++t)
    EXPECT_EQ(s.decide(ctx, budget).selected, std::vector<std::size_t>{2});
}

TEST(PowD, OverCapWithNobodyAffordableSelectsNobody) {
  PowDConfig cfg;
  cfg.base = base_cfg();
  cfg.d = 4;
  PowDStrategy s(5, cfg);
  BudgetLedger budget(0.2);  // below the cheapest cost
  const auto ctx = cheapest_in_middle_ctx();
  for (int t = 0; t < 20; ++t)
    EXPECT_TRUE(s.decide(ctx, budget).selected.empty());
}

// --- FedL strategy ------------------------------------------------------------------

FedLConfig fedl_cfg() {
  FedLConfig cfg;
  cfg.learner.n_min = 3;
  cfg.learner.theta = 0.5;
  cfg.l_max = 6;
  return cfg;
}

TEST(FedL, DecisionIsFeasible) {
  FedLStrategy s(10, fedl_cfg());
  BudgetLedger budget(500.0);
  const auto ctx = make_ctx(10);
  for (int t = 0; t < 10; ++t) {
    const auto d = s.decide(ctx, budget);
    EXPECT_TRUE(all_available(d, ctx));
    EXPECT_GE(d.selected.size(), 3u);  // n_min repair
    EXPECT_LE(decision_cost(d, ctx), budget.remaining() + 1e-9);
    EXPECT_GE(d.num_iterations, 1u);
    EXPECT_LE(d.num_iterations, 6u);
    std::set<std::size_t> uniq(d.selected.begin(), d.selected.end());
    EXPECT_EQ(uniq.size(), d.selected.size());
  }
}

TEST(FedL, TinyBudgetNeverOverspends) {
  FedLStrategy s(10, fedl_cfg());
  BudgetLedger tiny(1.0);  // cheapest client costs 0.5
  const auto ctx = make_ctx(10);
  for (int t = 0; t < 10; ++t) {
    const auto d = s.decide(ctx, tiny);
    EXPECT_LE(decision_cost(d, ctx), tiny.remaining() + 1e-9);
  }
}

TEST(FedL, LearnsToAvoidSlowClients) {
  // Feed epochs where client latency differences dominate; FedL should end
  // up preferring the fast half.
  FedLConfig cfg = fedl_cfg();
  cfg.learner.n_min = 2;
  FedLStrategy s(6, cfg);
  BudgetLedger budget(10000.0);
  sim::EpochContext ctx;
  ctx.epoch = 1;
  for (std::size_t i = 0; i < 6; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = 1.0;
    o.data_size = 20;
    o.tau_loc = (i < 3) ? 0.1 : 3.0;  // clients 0–2 fast, 3–5 slow
    o.tau_cm_est = 0.05;
    ctx.available.push_back(o);
  }
  for (int t = 0; t < 25; ++t) {
    const auto d = s.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = d.selected;
    out.num_iterations = d.num_iterations;
    out.client_eta.assign(d.selected.size(), 0.5);
    out.client_loss_reduction.assign(d.selected.size(), 0.05);
    out.client_completed_iters.assign(d.selected.size(), d.num_iterations);
    out.train_loss_all = 0.4;  // satisfied: latency pressure dominates
    s.observe(ctx, d, out);
  }
  const auto& learner = s.learner();
  const double fast_mass = learner.x_fraction(0) + learner.x_fraction(1) +
                           learner.x_fraction(2);
  const double slow_mass = learner.x_fraction(3) + learner.x_fraction(4) +
                           learner.x_fraction(5);
  EXPECT_GT(fast_mass, slow_mass);
}

TEST(FedL, IndependentRoundingVariantRuns) {
  FedLConfig cfg = fedl_cfg();
  cfg.independent_rounding = true;
  FedLStrategy s(8, cfg);
  BudgetLedger budget(500.0);
  const auto d = s.decide(make_ctx(8), budget);
  EXPECT_GE(d.selected.size(), 3u);
}

}  // namespace
}  // namespace fedl::core

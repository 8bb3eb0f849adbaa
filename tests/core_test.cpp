// Tests for the FedL core: budget ledger & horizon bounds, ρ↔l conversion,
// the online learner's descent/ascent steps, and the regret tracker.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/budget.h"
#include "core/online_learner.h"
#include "core/regret.h"
#include "core/types.h"

namespace fedl::core {
namespace {

// --- budget ----------------------------------------------------------------

TEST(BudgetLedger, ChargesAccumulate) {
  BudgetLedger b(100.0);
  EXPECT_DOUBLE_EQ(b.remaining(), 100.0);
  b.charge(30.0);
  b.charge(20.0);
  EXPECT_DOUBLE_EQ(b.spent(), 50.0);
  EXPECT_DOUBLE_EQ(b.remaining(), 50.0);
  EXPECT_FALSE(b.exhausted());
  b.charge(50.0);  // spending to exactly the total is fine
  EXPECT_TRUE(b.exhausted());
  EXPECT_DOUBLE_EQ(b.remaining(), 0.0);
}

TEST(BudgetLedger, RejectsNonPositiveBudgetAndNegativeCharge) {
  EXPECT_THROW(BudgetLedger(0.0), CheckError);
  BudgetLedger b(10.0);
  EXPECT_THROW(b.charge(-1.0), CheckError);
}

TEST(BudgetLedger, OverdrawFailsLoudly) {
  // Constraint (3a) is hard: the selection layer must repair decisions back
  // under the remainder, so a charge past total_ is a caller bug.
  BudgetLedger b(100.0);
  b.charge(90.0);
  EXPECT_THROW(b.charge(20.0), CheckError);
  EXPECT_DOUBLE_EQ(b.spent(), 90.0);  // failed charge did not post
  b.charge(10.0);                     // exact fill still allowed
  EXPECT_TRUE(b.exhausted());
}

TEST(HorizonBounds, PaperFormula) {
  // T_C in [C/(n·max c), C/(n·min c)].
  const auto hb = BudgetLedger::horizon_bounds(600.0, 5, 0.1, 12.0);
  EXPECT_NEAR(hb.lower, 600.0 / (5 * 12.0), 1e-12);
  EXPECT_NEAR(hb.upper, 600.0 / (5 * 0.1), 1e-12);
  EXPECT_LE(hb.lower, hb.upper);
}

TEST(HorizonBounds, DegenerateInputsThrow) {
  EXPECT_THROW(BudgetLedger::horizon_bounds(-1.0, 5, 0.1, 12.0), ConfigError);
  EXPECT_THROW(BudgetLedger::horizon_bounds(10.0, 0, 0.1, 12.0), ConfigError);
  EXPECT_THROW(BudgetLedger::horizon_bounds(10.0, 5, 0.0, 12.0), ConfigError);
  EXPECT_THROW(BudgetLedger::horizon_bounds(10.0, 5, 2.0, 1.0), ConfigError);
}

// --- the per-epoch budget rule ---------------------------------------------

sim::EpochContext costs_ctx(const std::vector<double>& costs) {
  sim::EpochContext ctx;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = costs[i];
    ctx.available.push_back(o);
  }
  return ctx;
}

TEST(PacedCap, ScalesWithMeanCostAndBudget) {
  const auto ctx = costs_ctx({0.5, 1.5, 2.5, 3.5});  // mean 2
  EXPECT_NEAR(paced_cap(ctx, 3, 1000.0), kPacing * 3 * 2.0, 1e-9);
  EXPECT_NEAR(paced_cap(ctx, 3, 4.0), 4.0, 1e-9);  // the remainder binds
  EXPECT_EQ(paced_cap(sim::EpochContext{}, 3, 1000.0), 0.0);
}

TEST(AffordableFloor, LongestAffordablePrefixOfTheCheapest) {
  std::vector<double> costs = {4.0, 1.0, 3.0, 2.0, 0.5};
  // Cheapest three: 0.5, 1.0, 2.0; prefixes 0.5, 1.5, 3.5.
  AffordableFloor f = affordable_floor(costs, 3, 10.0);
  EXPECT_EQ(f.count, 3u);
  EXPECT_EQ(f.cost, 3.5);
  costs = {4.0, 1.0, 3.0, 2.0, 0.5};
  f = affordable_floor(costs, 3, 2.0);  // 3.5 > 2: two fit
  EXPECT_EQ(f.count, 2u);
  EXPECT_EQ(f.cost, 1.5);
}

TEST(AffordableFloor, NAboveTheSizeTakesEveryCost) {
  std::vector<double> costs = {2.0, 1.0};
  const AffordableFloor f = affordable_floor(costs, 5, 100.0);
  EXPECT_EQ(f.count, 2u);
  EXPECT_EQ(f.cost, 3.0);
}

TEST(AffordableFloor, RemainderBelowTheCheapestIsEmpty) {
  std::vector<double> costs = {2.0, 1.0, 3.0};
  const AffordableFloor f = affordable_floor(costs, 2, 0.9);
  EXPECT_EQ(f.count, 0u);
  EXPECT_EQ(f.cost, 0.0);
}

TEST(FitUnderCap, AlreadyUnderTheCapFlipsNothing) {
  std::vector<double> chosen = {1, 0, 1};
  std::vector<std::size_t> order;
  EXPECT_EQ(fit_under_cap(chosen, {1.0, 9.0, 2.0}, 3.0, 1, order), 0u);
  EXPECT_EQ(chosen, (std::vector<double>{1, 0, 1}));
  EXPECT_TRUE(order.empty());  // scratch untouched
}

TEST(FitUnderCap, DropsMostExpensiveFirst) {
  // Σ = 10 over a cap of 5: drop 4.0, then 3.0; 1.0 + 2.0 fits.
  std::vector<double> chosen = {1, 1, 1, 1, 0};
  std::vector<std::size_t> order;
  EXPECT_EQ(fit_under_cap(chosen, {1.0, 4.0, 2.0, 3.0, 0.1}, 5.0, 1, order),
            2u);
  EXPECT_EQ(chosen, (std::vector<double>{1, 0, 1, 0, 0}));
}

TEST(FitUnderCap, TiedCostsDropTheLowerIndexFirst) {
  std::vector<double> chosen = {1, 1, 1};
  std::vector<std::size_t> order;
  EXPECT_EQ(fit_under_cap(chosen, {2.0, 2.0, 2.0}, 4.0, 1, order), 1u);
  EXPECT_EQ(chosen, (std::vector<double>{0, 1, 1}));
}

TEST(FitUnderCap, NeverDropsBelowTheFloor) {
  // Dropping 5.0 leaves {3.0, 1.0} = 4 > 3.5, but the floor is two: the
  // fallback takes the two cheapest of all candidates, 0.5 and 1.0.
  std::vector<double> chosen = {1, 1, 1, 0};
  std::vector<std::size_t> order;
  const std::size_t flips =
      fit_under_cap(chosen, {5.0, 3.0, 1.0, 0.5}, 3.5, 2, order);
  EXPECT_EQ(chosen, (std::vector<double>{0, 0, 1, 1}));
  // 5.0 dropped, then 3.0 off and 0.5 on in the fallback.
  EXPECT_EQ(flips, 3u);
}

TEST(FitUnderCap, FallbackBreaksCostTiesByIndex) {
  std::vector<double> chosen = {1, 0, 0, 0};
  std::vector<std::size_t> order;
  EXPECT_EQ(fit_under_cap(chosen, {9.0, 1.0, 1.0, 1.0}, 2.0, 2, order), 3u);
  EXPECT_EQ(chosen, (std::vector<double>{0, 1, 1, 0}));
}

TEST(FitUnderCap, FloorCheapestOverTheCapSelectsNobody) {
  std::vector<double> chosen = {1, 1, 0};
  std::vector<std::size_t> order;
  EXPECT_EQ(fit_under_cap(chosen, {3.0, 2.0, 1.5}, 1.0, 1, order), 2u);
  EXPECT_EQ(chosen, (std::vector<double>{0, 0, 0}));
}

// --- ρ / η / l conversions -------------------------------------------------------

TEST(Types, RhoToItersCeil) {
  EXPECT_EQ(rho_to_iters(1.0, 10), 1u);
  EXPECT_EQ(rho_to_iters(1.2, 10), 2u);
  EXPECT_EQ(rho_to_iters(3.0, 10), 3u);
  EXPECT_EQ(rho_to_iters(50.0, 10), 10u);  // capped
  EXPECT_EQ(rho_to_iters(0.2, 10), 1u);    // floor at 1
  EXPECT_EQ(rho_to_iters(std::nan(""), 10), 1u);
}

// --- online learner -----------------------------------------------------------------

sim::EpochContext make_ctx(std::size_t k, std::size_t epoch = 1) {
  sim::EpochContext ctx;
  ctx.epoch = epoch;
  for (std::size_t i = 0; i < k; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = 1.0 + static_cast<double>(i);
    o.data_size = 20;
    o.tau_loc = 0.5 + 0.3 * static_cast<double>(i);
    o.tau_cm_est = 0.2;
    ctx.available.push_back(o);
  }
  return ctx;
}

LearnerConfig small_cfg() {
  LearnerConfig cfg;
  cfg.n_min = 2;
  cfg.theta = 0.5;
  return cfg;
}

TEST(OnlineLearner, DecideProducesFeasibleFractions) {
  OnlineLearner learner(6, small_cfg());
  BudgetLedger budget(100.0);
  const auto ctx = make_ctx(6);
  const auto dec = learner.decide(ctx, budget);
  ASSERT_EQ(dec.ids.size(), 6u);
  double sum = 0.0;
  for (double x : dec.x) {
    EXPECT_GE(x, -1e-9);
    EXPECT_LE(x, 1.0 + 1e-9);
    sum += x;
  }
  EXPECT_GE(sum, 2.0 - 1e-6);  // Σx ≥ n_min
  EXPECT_GE(dec.rho, 1.0);
  EXPECT_LE(dec.rho, learner.config().rho_max + 1e-9);
}

TEST(OnlineLearner, BudgetCapLimitsFractionalSpend) {
  OnlineLearner learner(6, small_cfg());
  BudgetLedger tight(3.0);  // costs are 1..6 -> the remainder caps
  const auto ctx = make_ctx(6);
  const auto dec = learner.decide(ctx, tight);
  double spend = 0.0;
  for (std::size_t i = 0; i < dec.x.size(); ++i)
    spend += dec.x[i] * ctx.available[i].cost;
  // Fractional decisions are allowed tiny numerical slack; the hard budget
  // guarantee is enforced at the integer level by FedLStrategy's repair.
  EXPECT_LE(spend, 3.0 + 1e-3);
}

TEST(OnlineLearner, EmptyContextReturnsEmptyDecision) {
  OnlineLearner learner(4, small_cfg());
  BudgetLedger budget(10.0);
  sim::EpochContext ctx;
  const auto dec = learner.decide(ctx, budget);
  EXPECT_TRUE(dec.ids.empty());
}

TEST(OnlineLearner, DualAscentFollowsUpdateRule) {
  // One observe() step with hand-computable h: μ' = [μ + δ h]+ with μ = 0.
  LearnerConfig cfg = small_cfg();
  cfg.delta = 0.5;
  OnlineLearner learner(3, cfg);
  const auto ctx = make_ctx(3);
  BudgetLedger budget(50.0);
  const auto frac = learner.decide(ctx, budget);

  fl::EpochOutcome out;
  out.epoch = 1;
  out.selected = {0};
  out.num_iterations = 2;
  out.client_eta = {0.9};
  out.client_loss_reduction = {0.2};
  out.client_completed_iters = {2};
  out.train_loss_all = 1.5;  // h^0 = 1.5 − 0.5 = 1.0
  learner.observe(frac, out);

  EXPECT_NEAR(learner.mu0(), 0.5 * 1.0, 1e-9);  // δ·h0 from μ=0
  // h^1 = η x̃_0 ρ − ρ + 1 with observed η = 0.9.
  const double h1 = 0.9 * frac.x[0] * frac.rho - frac.rho + 1.0;
  EXPECT_NEAR(learner.mu_k(0), std::max(0.0, 0.5 * h1), 1e-9);
}

TEST(OnlineLearner, EstimatesTrackObservations) {
  LearnerConfig cfg = small_cfg();
  cfg.ema = 1.0;  // estimate = last observation
  OnlineLearner learner(3, cfg);
  const auto ctx = make_ctx(3);
  BudgetLedger budget(50.0);
  const auto frac = learner.decide(ctx, budget);

  fl::EpochOutcome out;
  out.selected = {1};
  out.num_iterations = 4;
  out.client_eta = {0.7};
  out.client_loss_reduction = {0.8};  // per-iter = 0.2
  out.client_completed_iters = {4};
  out.train_loss_all = 1.2;
  learner.observe(frac, out);

  EXPECT_NEAR(learner.eta_estimate(1), 0.7, 1e-12);
  EXPECT_NEAR(learner.delta_estimate(1), 0.2, 1e-12);
  // Unselected clients keep their priors.
  EXPECT_NEAR(learner.eta_estimate(0), kInitEta, 1e-12);
}

TEST(OnlineLearner, NegativeLossReductionFlooredAtZero) {
  LearnerConfig cfg = small_cfg();
  cfg.ema = 1.0;
  OnlineLearner learner(2, cfg);
  const auto ctx = make_ctx(2);
  BudgetLedger budget(50.0);
  const auto frac = learner.decide(ctx, budget);
  fl::EpochOutcome out;
  out.selected = {0};
  out.num_iterations = 1;
  out.client_eta = {0.5};
  out.client_loss_reduction = {-0.4};
  out.client_completed_iters = {1};
  out.train_loss_all = 1.0;
  learner.observe(frac, out);
  EXPECT_DOUBLE_EQ(learner.delta_estimate(0), 0.0);
}

TEST(OnlineLearner, MuIsClipped) {
  LearnerConfig cfg = small_cfg();
  cfg.delta = 100.0;
  cfg.mu_max = 5.0;
  OnlineLearner learner(2, cfg);
  const auto ctx = make_ctx(2);
  BudgetLedger budget(50.0);
  const auto frac = learner.decide(ctx, budget);
  fl::EpochOutcome out;
  out.train_loss_all = 100.0;  // huge violation
  learner.observe(frac, out);
  EXPECT_LE(learner.mu0(), 5.0);
}

TEST(OnlineLearner, LatencyPressurePushesTowardFastClients) {
  // After many epochs where nothing else differs, the slow client's fraction
  // must not exceed the fast client's.
  LearnerConfig cfg = small_cfg();
  cfg.n_min = 1;
  OnlineLearner learner(2, cfg);
  BudgetLedger budget(1000.0);
  sim::EpochContext ctx;
  ctx.epoch = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = 1.0;
    o.data_size = 20;
    o.tau_loc = (i == 0) ? 0.1 : 5.0;  // client 1 is 50x slower
    o.tau_cm_est = 0.1;
    ctx.available.push_back(o);
  }
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto frac = learner.decide(ctx, budget);
    fl::EpochOutcome out;
    out.train_loss_all = 0.4;  // below θ: no convergence pressure
    learner.observe(frac, out);
  }
  EXPECT_GT(learner.x_fraction(0), learner.x_fraction(1));
}

// --- regret tracker ------------------------------------------------------------------

TEST(PerEpochOptimum, PicksFastestClients) {
  const auto ctx = make_ctx(4);  // taus: 0.7, 1.0, 1.3, 1.6
  const double opt = per_epoch_optimum(ctx, 100.0, 2);
  EXPECT_NEAR(opt, 0.7 + 1.0, 1e-9);
}

TEST(PerEpochOptimum, EmptyContextIsZero) {
  sim::EpochContext ctx;
  EXPECT_EQ(per_epoch_optimum(ctx, 10.0, 3), 0.0);
}

TEST(RegretTracker, AccumulatesOnlineMinusOffline) {
  RegretConfig rc;
  rc.theta = 0.5;
  rc.n_min = 2;
  RegretTracker tracker(4, rc);
  const auto ctx = make_ctx(4);

  Decision dec;
  dec.selected = {2, 3};  // slow pair
  dec.num_iterations = 2;
  fl::EpochOutcome out;
  out.selected = dec.selected;
  out.num_iterations = 2;
  out.cost = 7.0;
  out.client_latency_s = {2 * 1.3, 2 * 1.6};
  out.client_eta = {0.5, 0.5};
  out.train_loss_all = 1.5;
  tracker.record(ctx, /*remaining=*/1000.0, dec, 2.0, out);

  EXPECT_EQ(tracker.epochs(), 1u);
  EXPECT_NEAR(tracker.online_objective(), 2 * 1.3 + 2 * 1.6, 1e-9);
  EXPECT_GT(tracker.regret(), 0.0);  // online chose slow clients
  // Fit: h^0 = 1.5 − 0.5 = 1 accumulated.
  EXPECT_GE(tracker.fit(), 1.0);
}

TEST(RegretTracker, FitIgnoresSatisfiedConstraints) {
  RegretConfig rc;
  rc.theta = 2.0;  // loss below θ -> no violation
  rc.n_min = 1;
  RegretTracker tracker(2, rc);
  const auto ctx = make_ctx(2);
  Decision dec;
  dec.selected = {0};
  dec.num_iterations = 1;
  fl::EpochOutcome out;
  out.selected = {0};
  out.num_iterations = 1;
  out.client_latency_s = {0.7};
  out.client_eta = {0.0};  // perfectly solved local problem
  out.train_loss_all = 1.0;
  tracker.record(ctx, /*remaining=*/100.0, dec, 1.0, out);
  EXPECT_NEAR(tracker.fit(), 0.0, 1e-9);
}

TEST(RegretTracker, ComparatorCapIsTheGivenRemainder) {
  // Costs 1..4 (mean 2.5) and n = 2: the paced cap is 7.5, under which the
  // two fastest (costs 1 + 2) fit. A remainder of 2.5 caps Φ*_t instead,
  // so it takes the fastest client, then the cheapest one that still fits
  // (none): only client 0. The outcome's own cost does not enter the cap.
  RegretConfig rc;
  rc.n_min = 2;
  const auto ctx = make_ctx(4);  // taus 0.7, 1.0, 1.3, 1.6
  Decision dec;
  dec.selected = {0};
  dec.num_iterations = 1;
  fl::EpochOutcome out;
  out.selected = {0};
  out.num_iterations = 1;
  out.cost = 100.0;
  out.client_latency_s = {0.7};
  out.client_eta = {0.5};
  out.train_loss_all = 1.0;

  RegretTracker loose(4, rc);
  loose.record(ctx, /*remaining=*/1000.0, dec, 1.0, out);
  EXPECT_NEAR(loose.offline_objective(), 0.7 + 1.0, 1e-12);
  EXPECT_EQ(loose.offline_objective(),
            per_epoch_optimum(ctx, paced_cap(ctx, 2, 1000.0), 2));

  RegretTracker tight(4, rc);
  tight.record(ctx, /*remaining=*/2.5, dec, 1.0, out);
  EXPECT_NEAR(tight.offline_objective(), 0.7, 1e-12);
  EXPECT_EQ(tight.offline_objective(), per_epoch_optimum(ctx, 2.5, 2));
}

}  // namespace
}  // namespace fedl::core

// Edge-case tests for the online learner and FedL strategy: degenerate
// availability, extreme duals, fraction stability, fairness warm-up, the
// ρ/η conversions at their boundaries, and the optimality of decide()'s
// step (8) solution.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fedl_strategy.h"
#include "core/online_learner.h"
#include "solver/projection.h"

namespace fedl::core {
namespace {

sim::EpochContext ctx_with(std::vector<sim::ClientObservation> obs) {
  sim::EpochContext ctx;
  ctx.epoch = 1;
  ctx.available = std::move(obs);
  return ctx;
}

sim::ClientObservation client(std::size_t id, double cost, double tau) {
  sim::ClientObservation o;
  o.id = id;
  o.cost = cost;
  o.data_size = 10;
  o.tau_loc = tau;
  o.tau_cm_est = 0.1;
  return o;
}

LearnerConfig cfg_n(std::size_t n) {
  LearnerConfig cfg;
  cfg.n_min = n;
  return cfg;
}

TEST(LearnerEdge, SingleAvailableClient) {
  OnlineLearner learner(5, cfg_n(3));
  BudgetLedger budget(100.0);
  const auto dec = learner.decide(ctx_with({client(2, 1.0, 0.5)}), budget);
  ASSERT_EQ(dec.ids.size(), 1u);
  // Σx ≥ min(n, |E|) = 1 forces full selection of the only client.
  EXPECT_NEAR(dec.x[0], 1.0, 1e-6);
}

TEST(LearnerEdge, NMinEqualsAvailableForcesEveryone) {
  OnlineLearner learner(4, cfg_n(4));
  BudgetLedger budget(1000.0);
  const auto dec = learner.decide(
      ctx_with({client(0, 1, 0.2), client(1, 1, 0.4), client(2, 1, 0.6),
                client(3, 1, 0.8)}),
      budget);
  double sum = 0.0;
  for (double x : dec.x) sum += x;
  EXPECT_GE(sum, 4.0 - 1e-4);
}

TEST(LearnerEdge, FractionsStayInBoxOverManyEpochs) {
  OnlineLearner learner(6, cfg_n(2));
  BudgetLedger budget(1e6);
  const auto ctx = ctx_with({client(0, 1, 0.1), client(1, 2, 0.2),
                             client(2, 3, 0.3), client(3, 4, 0.4),
                             client(4, 5, 0.5), client(5, 6, 0.6)});
  for (int t = 0; t < 30; ++t) {
    const auto dec = learner.decide(ctx, budget);
    for (double x : dec.x) {
      EXPECT_GE(x, -1e-9);
      EXPECT_LE(x, 1.0 + 1e-9);
    }
    EXPECT_GE(dec.rho, 1.0);
    fl::EpochOutcome out;
    out.selected = {0};
    out.num_iterations = 1;
    out.client_eta = {0.5};
    out.client_loss_reduction = {0.1};
    out.client_completed_iters = {1};
    out.train_loss_all = 2.0;  // persistent violation: duals keep growing
    learner.observe(dec, out);
  }
  // Duals grew for 30 epochs of violation; ρ must be pushed up but stay
  // within its cap.
  EXPECT_LE(learner.rho(), learner.config().rho_max + 1e-9);
  EXPECT_GT(learner.mu0(), 1.0);
}

TEST(LearnerEdge, SatisfiedConstraintDrivesMuToZero) {
  LearnerConfig cfg = cfg_n(1);
  cfg.delta = 0.5;
  OnlineLearner learner(2, cfg);
  BudgetLedger budget(100.0);
  const auto ctx = ctx_with({client(0, 1, 0.1), client(1, 1, 0.2)});

  // First: violate to build up μ0.
  auto frac = learner.decide(ctx, budget);
  fl::EpochOutcome bad;
  bad.train_loss_all = 3.0;
  learner.observe(frac, bad);
  const double mu_high = learner.mu0();
  EXPECT_GT(mu_high, 0.0);

  // Then: persistently satisfied -> the positive-part update bleeds μ0 off.
  fl::EpochOutcome good;
  good.train_loss_all = 0.0;  // h0 = −θ < 0
  for (int t = 0; t < 30; ++t) {
    frac = learner.decide(ctx, budget);
    learner.observe(frac, good);
  }
  EXPECT_EQ(learner.mu0(), 0.0);
}

TEST(LearnerEdge, HigherDeltaEstimateRaisesSelectionPressure) {
  // Two identical clients except the learned Δ̂; with an active convergence
  // constraint the high-Δ̂ client must end with at least the fraction of the
  // low-Δ̂ one.
  LearnerConfig cfg = cfg_n(1);
  cfg.ema = 1.0;
  OnlineLearner learner(2, cfg);
  BudgetLedger budget(1000.0);
  const auto ctx = ctx_with({client(0, 1, 0.5), client(1, 1, 0.5)});
  for (int t = 0; t < 12; ++t) {
    const auto frac = learner.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = {0, 1};
    out.num_iterations = 1;
    out.client_eta = {0.5, 0.5};
    out.client_loss_reduction = {0.5, 0.01};  // client 0 is far more useful
    out.client_completed_iters = {1, 1};
    out.train_loss_all = 2.0;                 // θ violated -> μ0 active
    learner.observe(frac, out);
  }
  EXPECT_GE(learner.x_fraction(0), learner.x_fraction(1) - 1e-6);
  EXPECT_GT(learner.delta_estimate(0), learner.delta_estimate(1));
}

TEST(LearnerEdge, ZeroBudgetRemainingYieldsEmptyDecision) {
  OnlineLearner learner(3, cfg_n(2));
  BudgetLedger budget(10.0);
  budget.charge(10.0);  // remaining == 0: not even one client is affordable
  const auto dec = learner.decide(
      ctx_with({client(0, 1, 0.1), client(1, 1, 0.2), client(2, 1, 0.3)}),
      budget);
  // Handing the prox solver Σx ≥ n alongside Σc·x ≤ 0 would be contradictory;
  // the learner must instead declare the epoch infeasible.
  EXPECT_TRUE(dec.ids.empty());
  EXPECT_TRUE(dec.x.empty());
}

TEST(LearnerEdge, ExhaustedBudgetShrinksParticipationFloor) {
  // remaining = 2.5 affords only the cheapest client (1.0; adding the next
  // at 2.0 overshoots). The learner must shrink n_eff to that affordable
  // prefix instead of building an infeasible set, and the resulting plan
  // must itself respect the remaining budget.
  OnlineLearner learner(3, cfg_n(3));
  BudgetLedger budget(100.0);
  budget.charge(97.5);
  const auto dec = learner.decide(
      ctx_with({client(0, 1.0, 0.1), client(1, 2.0, 0.2),
                client(2, 5.0, 0.3)}),
      budget);
  ASSERT_EQ(dec.x.size(), 3u);
  double planned = 0.0;
  const double costs[] = {1.0, 2.0, 5.0};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(dec.x[i]));
    planned += dec.x[i] * costs[i];
  }
  EXPECT_LE(planned, budget.remaining() + 1e-6);
}

TEST(LearnerEdge, LedgerNeverOverdrawsUnderFedL) {
  // Regression for the budget-exhaustion infeasibility: drive FedL until its
  // decisions go empty and verify the ledger never spends past the total.
  FedLConfig fc;
  fc.learner.n_min = 2;
  FedLStrategy s(4, fc);
  BudgetLedger budget(10.0);
  const auto ctx = ctx_with({client(0, 1.5, 0.1), client(1, 2.0, 0.2),
                             client(2, 2.5, 0.3), client(3, 3.0, 0.4)});
  for (int t = 0; t < 50; ++t) {
    const auto d = s.decide(ctx, budget);
    double epoch_cost = 0.0;
    for (std::size_t id : d.selected) epoch_cost += ctx.find(id)->cost;
    ASSERT_LE(epoch_cost, budget.remaining() + 1e-9) << "epoch " << t;
    budget.charge(epoch_cost);
    fl::EpochOutcome out;
    out.selected = d.selected;
    out.num_iterations = d.selected.empty() ? 0 : 1;
    out.client_eta.assign(d.selected.size(), 0.5);
    out.client_loss_reduction.assign(d.selected.size(), 0.1);
    out.client_completed_iters.assign(d.selected.size(), 1);
    out.train_loss_all = 1.0;
    s.observe(ctx, d, out);
    if (d.selected.empty()) break;
  }
  EXPECT_LE(budget.spent(), budget.total() + 1e-9);
}

TEST(LearnerEdge, ZeroCompletedIterationsLeaveEstimatesUntouched) {
  // A client that died before finishing one DANE iteration reports η = 0 as
  // a placeholder; EMAing that in would make flaky clients look like fast
  // convergers (η̂ → 0). The learner must skip the update entirely.
  LearnerConfig cfg = cfg_n(1);
  cfg.ema = 1.0;  // any accepted observation fully overwrites the estimate
  OnlineLearner learner(2, cfg);
  BudgetLedger budget(100.0);
  const auto ctx = ctx_with({client(0, 1, 0.1), client(1, 1, 0.2)});
  const double eta0 = learner.eta_estimate(0);
  const double delta0 = learner.delta_estimate(0);

  const auto frac = learner.decide(ctx, budget);
  fl::EpochOutcome out;
  out.selected = {0, 1};
  out.num_iterations = 3;
  out.client_eta = {0.0, 0.7};             // client 0 dropped at iteration 0
  out.client_loss_reduction = {0.0, 0.6};
  out.client_completed_iters = {0, 3};
  out.train_loss_all = 1.0;
  learner.observe(frac, out);

  EXPECT_EQ(learner.eta_estimate(0), eta0);
  EXPECT_EQ(learner.delta_estimate(0), delta0);
  EXPECT_NEAR(learner.eta_estimate(1), 0.7, 1e-12);
  EXPECT_NEAR(learner.delta_estimate(1), 0.2, 1e-12);  // 0.6 over 3 iters
}

TEST(LearnerEdge, DeltaEstimateDividesByClientCompletedIters) {
  // A client that completed 2 of the epoch's 4 iterations accumulated its
  // reduction over exactly those 2 — dividing by the epoch-wide count would
  // bias Δ̂ low by 2x.
  LearnerConfig cfg = cfg_n(1);
  cfg.ema = 1.0;
  OnlineLearner learner(1, cfg);
  BudgetLedger budget(100.0);
  const auto ctx = ctx_with({client(0, 1, 0.1)});
  const auto frac = learner.decide(ctx, budget);
  fl::EpochOutcome out;
  out.selected = {0};
  out.num_iterations = 4;
  out.client_eta = {0.5};
  out.client_loss_reduction = {0.8};  // accumulated over 2 completed iters
  out.client_completed_iters = {2};
  out.train_loss_all = 1.0;
  learner.observe(frac, out);
  EXPECT_NEAR(learner.delta_estimate(0), 0.4, 1e-12);
}

// --- FedL strategy edges -------------------------------------------------------

TEST(FedLEdge, EmptyEpochYieldsEmptyDecision) {
  FedLConfig fc;
  fc.learner.n_min = 2;
  FedLStrategy s(4, fc);
  BudgetLedger budget(100.0);
  sim::EpochContext ctx;
  const auto dec = s.decide(ctx, budget);
  EXPECT_TRUE(dec.selected.empty());
}

TEST(FedLEdge, FairnessInactiveDuringWarmup) {
  FedLConfig fc;
  fc.learner.n_min = 1;
  fc.fairness.enabled = true;
  fc.fairness.min_rate = 0.9;  // aggressive quota
  fc.fairness.warmup_epochs = 1000;  // never leaves warm-up
  FedLStrategy with_warmup(4, fc);
  fc.fairness.enabled = false;
  FedLStrategy without(4, fc);

  BudgetLedger b1(1e6), b2(1e6);
  const auto ctx = ctx_with({client(0, 1, 0.1), client(1, 1, 2.0),
                             client(2, 1, 2.0), client(3, 1, 2.0)});
  for (int t = 0; t < 8; ++t) {
    const auto d1 = with_warmup.decide(ctx, b1);
    const auto d2 = without.decide(ctx, b2);
    EXPECT_EQ(d1.selected, d2.selected) << "epoch " << t;
    fl::EpochOutcome out;
    out.selected = d1.selected;
    out.num_iterations = d1.num_iterations;
    out.client_eta.assign(d1.selected.size(), 0.5);
    out.client_loss_reduction.assign(d1.selected.size(), 0.1);
    out.client_completed_iters.assign(d1.selected.size(), d1.num_iterations);
    out.train_loss_all = 0.3;
    with_warmup.observe(ctx, d1, out);
    without.observe(ctx, d2, out);
  }
}

TEST(FedLEdge, ParticipationTrackerCountsEveryEpoch) {
  FedLConfig fc;
  fc.learner.n_min = 1;
  FedLStrategy s(3, fc);
  BudgetLedger budget(1e6);
  const auto ctx =
      ctx_with({client(0, 1, 0.1), client(1, 1, 0.2), client(2, 1, 0.3)});
  for (int t = 0; t < 5; ++t) {
    const auto d = s.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = d.selected;
    out.client_eta.assign(d.selected.size(), 0.0);
    out.client_loss_reduction.assign(d.selected.size(), 0.0);
    out.client_completed_iters.assign(d.selected.size(), 0);
    out.train_loss_all = 0.5;
    s.observe(ctx, d, out);
  }
  const ClientStatePool& pool = s.participation();
  EXPECT_EQ(pool.participation_epochs(), 5u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(pool.offered(pool.find(k)), 5u);
}

TEST(FedLEdge, IterationCountRespectsLMax) {
  FedLConfig fc;
  fc.learner.n_min = 1;
  fc.l_max = 3;
  fc.learner.rho_max = 50.0;  // learner may push ρ beyond l_max
  FedLStrategy s(2, fc);
  BudgetLedger budget(1e6);
  const auto ctx = ctx_with({client(0, 1, 0.1), client(1, 1, 0.2)});
  for (int t = 0; t < 20; ++t) {
    const auto d = s.decide(ctx, budget);
    EXPECT_LE(d.num_iterations, 3u);
    fl::EpochOutcome out;
    out.selected = d.selected;
    out.num_iterations = d.num_iterations;
    out.client_eta.assign(d.selected.size(), 0.99);  // demands huge ρ
    out.client_loss_reduction.assign(d.selected.size(), 0.01);
    out.client_completed_iters.assign(d.selected.size(), d.num_iterations);
    out.train_loss_all = 3.0;
    s.observe(ctx, d, out);
  }
}

// Runs `epochs` decide/observe cycles against a 6-client roster with a
// width-2 pruned solve (client 0 is the cheapest, so it owns the floor
// slot; one utility slot remains) and returns the set of client ids that
// ever made it into the candidate list. Client 1's feedback carries a much
// larger loss reduction than everyone else's, so the pure-exploit score
// locks the utility slot onto it after the first observation.
std::vector<bool> candidate_coverage(double width_explore,
                                     std::size_t epochs) {
  LearnerConfig cfg;
  cfg.n_min = 1;
  cfg.selection_width = 2;
  cfg.width_explore = width_explore;
  OnlineLearner learner(6, cfg);
  BudgetLedger budget(1e6);
  std::vector<bool> seen(6, false);
  for (std::size_t t = 1; t <= epochs; ++t) {
    sim::EpochContext ctx = ctx_with(
        {client(0, 0.4, 0.1), client(1, 1.0, 0.1), client(2, 1.0, 0.1),
         client(3, 1.0, 0.1), client(4, 1.0, 0.1), client(5, 1.0, 0.1)});
    ctx.epoch = t;
    const auto dec = learner.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = dec.ids;
    out.num_iterations = 1;
    for (std::size_t id : dec.ids) {
      seen[id] = true;
      out.client_eta.push_back(0.3);
      out.client_loss_reduction.push_back(id == 1 ? 0.5 : 0.05);
      out.client_completed_iters.push_back(1);
    }
    out.train_loss_all = 1.0;
    learner.observe(dec, out);
  }
  return seen;
}

TEST(LearnerEdge, ExploitOnlyPruningStarvesUnobservedClients) {
  // β_w = 0 (the default): once client 1 posts its big Δ̂, the single
  // utility slot never leaves it — clients 2–5 are starved for good. This
  // is the failure mode the UCB bonus exists to fix.
  const auto seen = candidate_coverage(0.0, 30);
  EXPECT_TRUE(seen[0]);  // floor slot (cheapest)
  EXPECT_TRUE(seen[1]);  // exploit winner
  EXPECT_FALSE(seen[2]);
  EXPECT_FALSE(seen[5]);
}

TEST(LearnerEdge, WidthExploreBonusRevisitsStarvedClients) {
  // With β_w > 0 the sqrt(log t / n_k) term grows for never-observed
  // clients relative to the repeatedly-seen exploit winner, so every client
  // re-enters the candidate set within a modest horizon.
  const auto seen = candidate_coverage(5.0, 30);
  for (std::size_t id = 0; id < 6; ++id)
    EXPECT_TRUE(seen[id]) << "client " << id
                          << " never entered the candidate set";
}

// decide() solves step (8) over the candidates:
//   min ∇f_t·(Φ − Φ_t) + ‖Φ − Φ_t‖²/(2β) + μ^0·h^0(Φ) + Σ_k μ^k·h^k(Φ)
// over x̃ ∈ [0,1]^w, ρ ∈ [1, ρ_max], Σ c_k x̃_k ≤ cap, Σ x̃_k ≥ n_eff, with
// ∇f_t = [ρ_t·τ_k, Σ x̃_t,k τ_k], h^0 = L̂ − (ρ/n)·Σ x̃_k Δ̂_k − θ and
// h^k = η̂_k·x̃_k·ρ − ρ + 1 (online_learner.h). The problem is rebuilt here
// from the learner's public state before decide() and the decision's cap
// and n_eff; the returned (x̃, ρ) must be feasible and no worse than any of
// 600 feasible points (300 drawn over the box, 300 near the solution),
// which checks the objective's gradient through the solver's result.
TEST(LearnerEdge, DecisionSolvesStepEight) {
  const std::size_t k = 8;
  LearnerConfig cfg = cfg_n(3);
  OnlineLearner learner(k, cfg);
  BudgetLedger budget(1000.0);
  std::vector<sim::ClientObservation> obs;
  for (std::size_t id = 0; id < k; ++id)
    obs.push_back(client(id, 0.5 + 0.75 * static_cast<double>(id),
                         0.1 + 0.3 * static_cast<double>((id * 5) % k)));
  const auto ctx = ctx_with(obs);

  // Observe a few epochs with the global loss above θ and fast selected
  // clients, so μ^0 and the μ^k of the clients decide() favoured grow.
  double last_loss = 0.0;
  for (int t = 0; t < 4; ++t) {
    const auto dec = learner.decide(ctx, budget);
    fl::EpochOutcome out;
    for (std::size_t i = 0; i < dec.ids.size(); ++i) {
      if (dec.x[i] < 0.5) continue;
      out.selected.push_back(dec.ids[i]);
      out.client_eta.push_back(0.9);
      out.client_loss_reduction.push_back(0.2 + 0.05 * static_cast<double>(i));
      out.client_completed_iters.push_back(2);
    }
    out.num_iterations = 2;
    last_loss = 1.6 - 0.1 * t;
    out.train_loss_all = last_loss;
    learner.observe(dec, out);
  }
  ASSERT_GT(learner.mu0(), 0.0);
  std::size_t positive_mu_k = 0;
  for (std::size_t id = 0; id < k; ++id) positive_mu_k += learner.mu_k(id) > 0.0;
  ASSERT_GT(positive_mu_k, 0u);

  // The problem as the learner's public state states it before decide().
  std::vector<double> anchor(k + 1), tau(k), mu(k), eta(k), delta(k);
  for (std::size_t id = 0; id < k; ++id) {
    anchor[id] = learner.x_fraction(id);
    tau[id] = obs[id].tau_loc + obs[id].tau_cm_est;
    mu[id] = learner.mu_k(id);
    eta[id] = learner.eta_estimate(id);
    delta[id] = learner.delta_estimate(id);
  }
  anchor[k] = learner.rho();
  const double mu0 = learner.mu0();
  std::vector<double> grad_f(k + 1, 0.0);
  for (std::size_t id = 0; id < k; ++id) {
    grad_f[id] = anchor[k] * tau[id];
    grad_f[k] += anchor[id] * tau[id];
  }
  const double n = static_cast<double>(cfg.n_min);
  auto objective = [&](const std::vector<double>& phi) {
    const double rho = phi[k];
    double value = 0.0;
    double gain = 0.0;
    for (std::size_t i = 0; i <= k; ++i) {
      const double dx = phi[i] - anchor[i];
      value += grad_f[i] * dx + dx * dx / (2.0 * cfg.beta);
    }
    for (std::size_t i = 0; i < k; ++i) {
      gain += phi[i] * delta[i];
      value += mu[i] * (eta[i] * phi[i] * rho - rho + 1.0);
    }
    return value + mu0 * (last_loss - (rho / n) * gain - cfg.theta);
  };

  const FractionalDecision dec = learner.decide(ctx, budget);
  ASSERT_EQ(dec.ids.size(), k);
  for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(dec.ids[i], i);
  const solver::DecisionSet set{dec.cost, dec.cap,
                                static_cast<double>(dec.n_eff), cfg.rho_max};
  // Whether φ = [x̃, ρ] lies in the set, within tol on every constraint.
  auto feasible = [&](const std::vector<double>& phi, double tol) {
    double spend = 0.0, count = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (phi[i] < -tol || phi[i] > 1.0 + tol) return false;
      spend += set.cost[i] * phi[i];
      count += phi[i];
    }
    return phi[k] >= 1.0 - tol && phi[k] <= set.rho_max + tol &&
           spend <= set.cap + tol && count >= set.floor - tol;
  };

  std::vector<double> solution = dec.x;
  solution.push_back(dec.rho);
  ASSERT_TRUE(feasible(solution, 1e-9));
  const double best = objective(solution);

  Rng rng(17);
  std::size_t compared = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<double> cand(k + 1);
    for (std::size_t i = 0; i <= k; ++i)
      cand[i] = trial < 300 ? rng.uniform(i < k ? 0.0 : 1.0,
                                          i < k ? 1.0 : cfg.rho_max)
                            : solution[i] + rng.uniform(-0.05, 0.05);
    set.project(cand);
    if (!feasible(cand, 1e-9)) continue;
    ++compared;
    EXPECT_GE(objective(cand), best - 1e-6) << "trial " << trial;
  }
  EXPECT_GT(compared, 500u);
}

}  // namespace
}  // namespace fedl::core

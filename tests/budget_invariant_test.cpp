// Budget-safety property tests (constraint (3a) is HARD):
//  * every strategy × 20 seeds × tight budgets: the committed selection is
//    affordable at every epoch and the ledger never overdraws;
//  * RDCS repair keeps E[x_k] ≈ x̃_k within a CI when the cap is slack;
//  * the subset rounding API is RNG-sequence-identical to the legacy API;
//  * candidate pruning with width ≥ |E_t| reproduces the unpruned run
//    byte-for-byte (golden-trace gate for the sparse selection path);
//  * unavailable clients' duals are bit-identical across observe();
//  * runs stop after a configurable streak of empty decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/fedl_strategy.h"
#include "core/rounding.h"
#include "harness/experiment.h"

namespace fedl {
namespace {

class QuietLogs3 : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuiet3 =
    ::testing::AddGlobalTestEnvironment(new QuietLogs3);

// Synthetic epoch context over `num_clients` clients: a random subset is
// available at Amazon-range posted costs. Mirrors what EdgeEnvironment
// produces without paying for datasets or training.
sim::EpochContext synth_ctx(std::size_t epoch, std::size_t num_clients,
                            Rng& rng) {
  sim::EpochContext ctx;
  ctx.epoch = epoch;
  const std::size_t avail =
      3 + static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(num_clients) - 3));
  std::vector<std::size_t> ids(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i) ids[i] = i;
  rng.shuffle(ids);
  ids.resize(avail);
  std::sort(ids.begin(), ids.end());
  for (std::size_t id : ids) {
    sim::ClientObservation o;
    o.id = id;
    o.cost = rng.uniform(0.1, 12.0);
    o.data_size = 5 + static_cast<std::size_t>(rng.uniform_int(0, 30));
    o.tau_loc = rng.uniform(0.05, 3.0);
    o.tau_cm_est = rng.uniform(0.01, 1.0);
    ctx.available.push_back(o);
  }
  return ctx;
}

fl::EpochOutcome synth_outcome(const core::Decision& dec,
                               const sim::EpochContext& ctx, Rng& rng) {
  fl::EpochOutcome out;
  out.epoch = ctx.epoch;
  out.selected = dec.selected;
  out.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
  double cost = 0.0;
  for (std::size_t id : dec.selected) {
    const auto* obs = ctx.find(id);
    cost += obs != nullptr ? obs->cost : 0.0;
    out.client_eta.push_back(rng.uniform(0.1, 0.95));
    out.client_loss_reduction.push_back(rng.uniform(0.0, 0.3));
    out.client_completed_iters.push_back(out.num_iterations);
  }
  out.cost = cost;
  out.train_loss_all = rng.uniform(0.2, 2.5);
  return out;
}

// --- every strategy never overdraws under tight budgets ---------------------

class BudgetInvariant
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(BudgetInvariant, SpentNeverExceedsBudget) {
  const std::string name = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed * 1013904223ULL + 12345ULL);

  harness::ScenarioConfig cfg;
  cfg.num_clients = 12;
  cfg.n_min = 3;
  // Tight: a handful of mid-range rents exhausts it, so the repair path and
  // the shrunken participation floor are exercised on nearly every epoch.
  cfg.budget = rng.uniform(5.0, 60.0);
  cfg.seed = seed;
  // Exercise the pruned prox solve for half of the FedL draws.
  cfg.selection_width = seed % 2 == 0 ? 5 : 0;
  auto strategy = harness::make_strategy(name, cfg);
  core::BudgetLedger ledger(cfg.budget);

  for (std::size_t epoch = 1; epoch <= 30; ++epoch) {
    const sim::EpochContext ctx = synth_ctx(epoch, cfg.num_clients, rng);
    const core::Decision dec = strategy->decide(ctx, ledger);

    std::set<std::size_t> uniq;
    double cost = 0.0;
    for (std::size_t id : dec.selected) {
      ASSERT_TRUE(ctx.is_available(id))
          << name << " selected unavailable client " << id;
      EXPECT_TRUE(uniq.insert(id).second);
      cost += ctx.find(id)->cost;
    }
    // The committed selection must be affordable NOW — not merely on
    // average (the post-rounding overdraw bug let Σc drift past the cap).
    ASSERT_LE(cost, ledger.remaining() + 1e-9)
        << name << " committed an unaffordable selection at epoch " << epoch;

    const fl::EpochOutcome out = synth_outcome(dec, ctx, rng);
    ledger.charge(cost);  // FEDL_CHECKs spent_ ≤ total_ internally
    ASSERT_LE(ledger.spent(), ledger.total() + 1e-9);
    strategy->observe(ctx, dec, out);
    if (ledger.exhausted()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesTimesSeeds, BudgetInvariant,
    ::testing::Combine(::testing::Values("fedl", "fedl-ind", "fedl-fair",
                                         "fedavg", "fedcs", "powd"),
                       ::testing::Range<std::uint64_t>(1, 21)));

// --- decide() commits a fractional x̃ inside its own feasible set -----------

// FedL that checks every non-empty fractional decision it commits against
// the set decide() projected onto: Σc·x̃ ≤ cap and Σx̃ ≥ n_eff.
class FeasibleFractionFedL : public core::FedLStrategy {
 public:
  using core::FedLStrategy::FedLStrategy;

  core::Decision decide(const sim::EpochContext& ctx,
                        const core::BudgetLedger& budget) override {
    core::Decision dec = core::FedLStrategy::decide(ctx, budget);
    const core::FractionalDecision& f = last_fraction();
    if (f.ids.empty()) return dec;
    ++checked;
    double spend = 0.0, count = 0.0;
    for (std::size_t i = 0; i < f.x.size(); ++i) {
      spend += f.cost[i] * f.x[i];
      count += f.x[i];
    }
    EXPECT_LE(spend, f.cap + 1e-9 * (1.0 + f.cap)) << "epoch " << ctx.epoch;
    EXPECT_GE(count, static_cast<double>(f.n_eff) - 1e-9)
        << "epoch " << ctx.epoch;
    return dec;
  }

  std::size_t checked = 0;
};

TEST(DecideFeasibility, HarnessCellCommitsFeasibleFractions) {
  // tools/harness_dump's cell `lockstep none drop=0.2 seed=1`. Its cap
  // binds tightly at epoch 8, where an inexact projection once committed an
  // x̃ 0.0198 over the cap.
  harness::ScenarioConfig cfg;
  cfg.num_clients = 8;
  cfg.n_min = 2;
  cfg.budget = 110.0;
  cfg.max_epochs = 12;
  cfg.availability = 0.6;
  cfg.empty_decision_streak = 3;
  cfg.train_samples = 200;
  cfg.test_samples = 60;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 8;
  cfg.eval_cap = 48;
  cfg.dane.sgd_steps = 2;
  cfg.seed = 1;
  cfg.faults.dropout_prob = 0.2;
  harness::Experiment exp(cfg);

  // The configuration make_strategy("fedl", cfg) builds.
  core::FedLConfig fc;
  fc.learner.n_min = cfg.n_min;
  fc.learner.theta = cfg.theta;
  fc.learner.selection_width = cfg.selection_width;
  fc.learner.width_explore = cfg.width_explore;
  fc.l_max = std::max<std::size_t>(cfg.fixed_iterations * 2, 4);
  fc.learner.rho_max = static_cast<double>(fc.l_max);
  fc.seed = cfg.seed * 61 + 37;
  FeasibleFractionFedL fedl(cfg.num_clients, fc);
  const harness::RunResult r = exp.run(fedl);
  EXPECT_GE(r.epochs_run, 8u);
  EXPECT_GE(fedl.checked, 8u);
}

// --- RDCS marginal preservation under repair --------------------------------

TEST(RdcsRepair, MarginalsSurviveWhenCapIsSlack) {
  // Identical unit costs with a slack cap: the repair never has to flip a
  // coordinate, so FedL's end-to-end selection frequency must match the
  // (deterministic) fractional decision within a CI. The fractional x̃ only
  // depends on ctx/budget/config, while the rounding draw depends on the
  // strategy seed — so re-creating the strategy per trial resamples the
  // rounding alone.
  sim::EpochContext ctx;
  ctx.epoch = 1;
  const std::size_t k = 8;
  for (std::size_t i = 0; i < k; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = 1.0;
    o.data_size = 20;
    o.tau_loc = 0.2 + 0.15 * static_cast<double>(i);
    o.tau_cm_est = 0.1;
    ctx.available.push_back(o);
  }
  core::BudgetLedger budget(1000.0);

  const int trials = 600;
  std::vector<double> hits(k, 0.0);
  std::vector<double> xfrac;
  for (int t = 0; t < trials; ++t) {
    core::FedLConfig fc;
    fc.learner.n_min = 3;
    fc.seed = static_cast<std::uint64_t>(t) * 2654435761ULL + 17ULL;
    core::FedLStrategy strat(k, fc);
    const core::Decision dec = strat.decide(ctx, budget);
    if (t == 0) xfrac = strat.last_fraction().x;
    for (std::size_t id : dec.selected) hits[id] += 1.0;
  }
  ASSERT_EQ(xfrac.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    const double p = xfrac[i];
    const double phat = hits[i] / trials;
    // ~4σ binomial CI around the fractional marginal.
    const double ci =
        4.0 * std::sqrt(std::max(p * (1.0 - p), 1e-4) / trials);
    EXPECT_NEAR(phat, p, ci + 1e-9) << "client " << i;
  }
}

TEST(RdcsSubset, MatchesLegacyRngSequence) {
  Rng rng_a(42), rng_b(42);
  const std::vector<double> x = {0.3, 1.0, 0.45, 0.0, 0.8, 0.62, 0.5, 0.17};
  const std::vector<int> legacy = core::rdcs_round(x, rng_a);

  std::vector<double> inplace = x;
  std::vector<std::size_t> idx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) idx[i] = i;
  core::RdcsScratch scratch;
  core::rdcs_round_subset(inplace, idx, rng_b, scratch);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(legacy[i], inplace[i] > 0.5 ? 1 : 0) << "coordinate " << i;
    EXPECT_TRUE(inplace[i] == 0.0 || inplace[i] == 1.0);
  }
  // Both consumed the same number of draws: next uniforms agree.
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(RdcsSubset, OnlyListedCoordinatesChange) {
  Rng rng(7);
  std::vector<double> x = {0.5, 0.25, 0.75, 0.4};
  const std::vector<std::size_t> idx = {1, 3};
  core::RdcsScratch scratch;
  core::rdcs_round_subset(x, idx, rng, scratch);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 0.75);
  EXPECT_TRUE(x[1] == 0.0 || x[1] == 1.0);
  EXPECT_TRUE(x[3] == 0.0 || x[3] == 1.0);
}

// --- pruning golden gate: width ≥ |E_t| is byte-identical -------------------

TEST(PruningGolden, WideWidthReproducesDenseTraceByteForByte) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 8;
  cfg.n_min = 3;
  cfg.budget = 150.0;
  cfg.max_epochs = 5;
  cfg.train_samples = 200;
  cfg.test_samples = 60;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 10;
  cfg.eval_cap = 48;
  cfg.dane.sgd_steps = 2;
  cfg.seed = 77;
  cfg.trace_out = "unused-deferred.jsonl";  // buffered, never written
  cfg.defer_trace = true;

  auto run_with_width = [&](std::size_t width) {
    harness::ScenarioConfig c = cfg;
    c.selection_width = width;
    harness::Experiment exp(c);
    auto strat = harness::make_strategy("fedl", c);
    return exp.run(*strat);
  };

  const harness::RunResult dense = run_with_width(0);
  // Width ≥ any possible |E_t| (≤ num_clients): pruning selects everyone.
  const harness::RunResult wide = run_with_width(cfg.num_clients);
  ASSERT_GT(dense.epochs_run, 0u);
  EXPECT_EQ(dense.epochs_run, wide.epochs_run);
  EXPECT_EQ(dense.trace_jsonl, wide.trace_jsonl);
  EXPECT_EQ(dense.trace.final_accuracy(), wide.trace.final_accuracy());
  EXPECT_EQ(dense.trace.total_cost(), wide.trace.total_cost());
}

TEST(Pruning, NarrowWidthBoundsCandidatesAndStaysFeasible) {
  Rng rng(321);
  core::FedLConfig fc;
  fc.learner.n_min = 3;
  fc.learner.selection_width = 5;
  fc.seed = 9;
  core::FedLStrategy strat(16, fc);
  core::BudgetLedger ledger(80.0);
  for (std::size_t epoch = 1; epoch <= 12; ++epoch) {
    const sim::EpochContext ctx = synth_ctx(epoch, 16, rng);
    const core::Decision dec = strat.decide(ctx, ledger);
    EXPECT_LE(strat.last_fraction().ids.size(), 5u);
    double cost = 0.0;
    for (std::size_t id : dec.selected) {
      ASSERT_TRUE(ctx.is_available(id));
      cost += ctx.find(id)->cost;
    }
    ASSERT_LE(cost, ledger.remaining() + 1e-9);
    const fl::EpochOutcome out = synth_outcome(dec, ctx, rng);
    ledger.charge(cost);
    strat.observe(ctx, dec, out);
    if (ledger.exhausted()) break;
  }
}

// --- sparse dual ascent: untouched clients are bit-identical ----------------

TEST(SparseDuals, UnavailableClientsKeepBitIdenticalState) {
  core::LearnerConfig cfg;
  cfg.n_min = 2;
  core::OnlineLearner learner(6, cfg);
  core::BudgetLedger budget(500.0);

  auto ctx_for = [](std::vector<std::size_t> ids) {
    sim::EpochContext ctx;
    ctx.epoch = 1;
    for (std::size_t id : ids) {
      sim::ClientObservation o;
      o.id = id;
      o.cost = 1.0 + static_cast<double>(id);
      o.data_size = 20;
      o.tau_loc = 0.3;
      o.tau_cm_est = 0.1;
      ctx.available.push_back(o);
    }
    return ctx;
  };

  // Epoch 1: client 5 is available and the constraint is violated, so its
  // dual becomes nonzero.
  {
    const auto ctx = ctx_for({0, 1, 5});
    const auto frac = learner.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = frac.ids;
    out.num_iterations = 2;
    out.client_eta.assign(frac.ids.size(), 0.95);
    out.client_loss_reduction.assign(frac.ids.size(), 0.05);
    out.client_completed_iters.assign(frac.ids.size(), 2);
    out.train_loss_all = 2.0;
    learner.observe(frac, out);
  }
  const double mu5 = learner.mu_k(5);
  const double eta5 = learner.eta_estimate(5);
  const double delta5 = learner.delta_estimate(5);
  const double x5 = learner.x_fraction(5);

  // Epochs 2..6: client 5 never appears; every bit of its state must
  // survive untouched (the dense implementation used to clamp all M duals).
  for (int t = 0; t < 5; ++t) {
    const auto ctx = ctx_for({0, 1, 2, 3});
    const auto frac = learner.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = frac.ids;
    out.num_iterations = 2;
    out.client_eta.assign(frac.ids.size(), 0.4);
    out.client_loss_reduction.assign(frac.ids.size(), 0.1);
    out.client_completed_iters.assign(frac.ids.size(), 2);
    out.train_loss_all = 1.0;
    learner.observe(frac, out);
  }
  EXPECT_EQ(learner.mu_k(5), mu5);
  EXPECT_EQ(learner.eta_estimate(5), eta5);
  EXPECT_EQ(learner.delta_estimate(5), delta5);
  EXPECT_EQ(learner.x_fraction(5), x5);
  // Never-seen clients read as the priors without allocating a slot.
  EXPECT_EQ(learner.mu_k(4), 0.0);
  EXPECT_LE(learner.active_clients(), 6u);
}

// --- empty-decision streak termination --------------------------------------

// Both exits below run once per execution mode: event mode must stop on
// the same streak and drain its in-flight cohorts at max_epochs.
TEST(Termination, EmptyDecisionStreakStopsTheRun) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "event mode" : "lockstep");
    harness::ScenarioConfig cfg;
    cfg.num_clients = 6;
    cfg.n_min = 2;
    cfg.budget = 200.0;
    cfg.max_epochs = 60;
    cfg.train_samples = 120;
    cfg.test_samples = 40;
    cfg.width_scale = 0.05;
    cfg.batch_cap = 8;
    cfg.eval_cap = 32;
    cfg.dane.sgd_steps = 1;
    cfg.seed = 5;
    cfg.availability = 1e-9;  // nobody ever shows up -> empty decisions
    cfg.empty_decision_streak = 4;
    cfg.async.enabled = async;
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy("fedl", cfg);
    const auto res = exp.run(*strat);
    EXPECT_EQ(res.termination_reason, "empty_decisions");
    EXPECT_LT(res.epochs_run, cfg.max_epochs);
    EXPECT_LE(res.epochs_run, 4u);
  }
}

TEST(Termination, ReasonIsAlwaysRecorded) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "event mode" : "lockstep");
    harness::ScenarioConfig cfg;
    cfg.num_clients = 6;
    cfg.n_min = 2;
    cfg.budget = 5000.0;  // generous: max_epochs is the binding stop
    cfg.max_epochs = 3;
    cfg.train_samples = 120;
    cfg.test_samples = 40;
    cfg.width_scale = 0.05;
    cfg.batch_cap = 8;
    cfg.eval_cap = 32;
    cfg.dane.sgd_steps = 1;
    cfg.seed = 6;
    cfg.async.enabled = async;
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy("fedavg", cfg);
    const auto res = exp.run(*strat);
    EXPECT_EQ(res.termination_reason, "max_epochs");
    EXPECT_EQ(res.epochs_run, 3u);
  }
}

}  // namespace
}  // namespace fedl

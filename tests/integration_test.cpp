// Integration tests across the whole stack: Experiment + every strategy,
// budget/feasibility invariants, determinism, and failure injection
// (low availability, tiny budgets, n_min larger than availability).
#include <gtest/gtest.h>

#include <cstdio>

#include "common/logging.h"
#include "harness/experiment.h"

namespace fedl::harness {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuiet =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);

ScenarioConfig tiny_scenario(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.num_clients = 8;
  cfg.n_min = 3;
  cfg.budget = 120.0;
  cfg.max_epochs = 6;
  cfg.train_samples = 240;
  cfg.test_samples = 80;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 12;
  cfg.eval_cap = 64;
  cfg.dane.sgd_steps = 2;
  cfg.seed = seed;
  return cfg;
}

class AllStrategies : public ::testing::TestWithParam<std::string> {};

TEST_P(AllStrategies, RunsAndRespectsInvariants) {
  const ScenarioConfig cfg = tiny_scenario();
  Experiment exp(cfg);
  auto strat = make_strategy(GetParam(), cfg);
  const RunResult res = exp.run(*strat);

  EXPECT_GT(res.epochs_run, 0u);
  ASSERT_FALSE(res.trace.records.empty());

  double prev_time = 0.0, prev_cost = 0.0;
  std::size_t prev_round = 0;
  for (const auto& r : res.trace.records) {
    // Series are cumulative and monotone.
    EXPECT_GE(r.sim_time_s, prev_time);
    EXPECT_GE(r.cost_spent, prev_cost);
    EXPECT_GE(r.round, prev_round);
    prev_time = r.sim_time_s;
    prev_cost = r.cost_spent;
    prev_round = r.round;
    EXPECT_GE(r.test_accuracy, 0.0);
    EXPECT_LE(r.test_accuracy, 1.0);
    EXPECT_GE(r.eta, 0.0);
    EXPECT_LT(r.eta, 1.0);
  }
  // The budget is never pre-charged past remaining: each epoch's spend was
  // affordable when committed, so cost can exceed C only by the last epoch.
  EXPECT_LE(res.trace.total_cost(), cfg.budget + 12.0 * cfg.num_clients);
}

INSTANTIATE_TEST_SUITE_P(Roster, AllStrategies,
                         ::testing::Values("fedl", "fedavg", "fedcs", "powd",
                                           "fedl-ind"));

TEST(Integration, DeterministicTraces) {
  const ScenarioConfig cfg = tiny_scenario(7);
  Experiment exp(cfg);
  auto s1 = make_strategy("fedl", cfg);
  auto s2 = make_strategy("fedl", cfg);
  const auto r1 = exp.run(*s1);
  const auto r2 = exp.run(*s2);
  ASSERT_EQ(r1.trace.records.size(), r2.trace.records.size());
  for (std::size_t i = 0; i < r1.trace.records.size(); ++i) {
    EXPECT_EQ(r1.trace.records[i].test_accuracy,
              r2.trace.records[i].test_accuracy);
    EXPECT_EQ(r1.trace.records[i].cost_spent, r2.trace.records[i].cost_spent);
    EXPECT_EQ(r1.trace.records[i].num_selected,
              r2.trace.records[i].num_selected);
  }
}

TEST(Integration, TrainingImprovesAccuracyOverInitial) {
  ScenarioConfig cfg = tiny_scenario(3);
  cfg.max_epochs = 10;
  cfg.budget = 400.0;
  Experiment exp(cfg);
  auto strat = make_strategy("fedavg", cfg);
  const auto res = exp.run(*strat);
  // 10-class task starts near 0.1; a few epochs of the tiny test model must
  // beat chance clearly.
  EXPECT_GT(res.trace.final_accuracy(), 0.14);
}

TEST(Integration, BudgetExhaustionStopsTheRun) {
  ScenarioConfig cfg = tiny_scenario(5);
  cfg.budget = 25.0;  // a couple of epochs at most
  cfg.max_epochs = 50;
  Experiment exp(cfg);
  auto strat = make_strategy("fedavg", cfg);
  const auto res = exp.run(*strat);
  EXPECT_TRUE(res.budget_exhausted);
  EXPECT_LT(res.epochs_run, 50u);
}

TEST(Integration, LowAvailabilityStillRuns) {
  ScenarioConfig cfg = tiny_scenario(9);
  cfg.availability = 0.25;
  cfg.n_min = 2;
  Experiment exp(cfg);
  for (const std::string name : {"fedl", "fedavg"}) {
    auto strat = make_strategy(name, cfg);
    const auto res = exp.run(*strat);
    EXPECT_GT(res.epochs_run, 0u) << name;
  }
}

TEST(Integration, NMinAboveAvailabilityDegradesGracefully) {
  ScenarioConfig cfg = tiny_scenario(11);
  cfg.num_clients = 6;
  cfg.n_min = 6;           // equals fleet size
  cfg.availability = 0.5;  // usually fewer than 6 available
  Experiment exp(cfg);
  auto strat = make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
  for (const auto& r : res.trace.records)
    EXPECT_LE(r.num_selected, 6u);
}

TEST(Integration, CifarTaskBuildsAndRuns) {
  ScenarioConfig cfg = tiny_scenario(13);
  cfg.task = Task::kCifarLike;
  cfg.max_epochs = 3;
  Experiment exp(cfg);
  EXPECT_TRUE((exp.train().sample_shape() == Shape{3, 32, 32}));
  auto strat = make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
}

TEST(Integration, NonIidPartitionRuns) {
  ScenarioConfig cfg = tiny_scenario(15);
  cfg.iid = false;
  Experiment exp(cfg);
  auto strat = make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
}

TEST(Integration, RegretAndFitAreFinite) {
  const ScenarioConfig cfg = tiny_scenario(17);
  Experiment exp(cfg);
  auto strat = make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_TRUE(std::isfinite(res.regret.regret()));
  EXPECT_TRUE(std::isfinite(res.regret.fit()));
  EXPECT_GE(res.regret.online_objective(), 0.0);
  EXPECT_GE(res.regret.offline_objective(), 0.0);
  // Online cannot beat the 1-lookahead per-epoch optimum by construction.
  EXPECT_GE(res.regret.regret(), -1e-6);
}

TEST(Integration, UnknownStrategyThrows) {
  const ScenarioConfig cfg = tiny_scenario();
  EXPECT_THROW(make_strategy("nope", cfg), ConfigError);
}

TEST(Integration, NMinLargerThanFleetRejected) {
  ScenarioConfig cfg = tiny_scenario();
  cfg.num_clients = 3;
  cfg.n_min = 5;
  EXPECT_THROW(Experiment{cfg}, CheckError);
}

TEST(Trace, DerivedMetricsBehave) {
  fl::TrainTrace t;
  t.algorithm = "x";
  for (std::size_t i = 1; i <= 5; ++i) {
    fl::TraceRecord r;
    r.epoch = i;
    r.round = 2 * i;
    r.sim_time_s = 10.0 * static_cast<double>(i);
    r.test_accuracy = 0.1 * static_cast<double>(i);
    t.records.push_back(r);
  }
  EXPECT_DOUBLE_EQ(t.time_to_accuracy(0.3), 30.0);
  EXPECT_TRUE(std::isinf(t.time_to_accuracy(0.9)));
  EXPECT_DOUBLE_EQ(t.rounds_to_accuracy(0.2), 4.0);
  EXPECT_DOUBLE_EQ(t.accuracy_at_time(35.0), 0.3);
  EXPECT_DOUBLE_EQ(t.accuracy_at_time(5.0), 0.0);
  EXPECT_DOUBLE_EQ(t.final_accuracy(), 0.5);
}

TEST(Trace, CheckedQueryAtExactRecordedAccuracyBoundary) {
  fl::TrainTrace t;
  for (std::size_t i = 1; i <= 3; ++i) {
    fl::TraceRecord r;
    r.round = i;
    r.sim_time_s = static_cast<double>(i);
    r.test_accuracy = 0.1 * static_cast<double>(i);
    t.records.push_back(r);
  }
  // time_to_accuracy with a target exactly equal to a recorded accuracy must
  // stop at that record (>= comparison), and accuracy_at_time at that
  // record's time must include it.
  EXPECT_DOUBLE_EQ(t.time_to_accuracy(0.2), 2.0);
  EXPECT_DOUBLE_EQ(t.accuracy_at_time(2.0), 0.2);
}

TEST(Integration, WarmStartContinuesFromSavedModel) {
  ScenarioConfig cfg = tiny_scenario(21);
  cfg.warm_start_path =
      std::string(::testing::TempDir()) + "/fedl_run_ckpt.bin";
  std::remove(cfg.warm_start_path.c_str());

  Experiment exp(cfg);
  auto s1 = make_strategy("fedavg", cfg);
  const auto first = exp.run(*s1);

  // Second run warm-starts from the saved model: its starting accuracy
  // should be at least in the neighbourhood of the first run's final
  // accuracy rather than chance level.
  auto s2 = make_strategy("fedavg", cfg);
  const auto second = exp.run(*s2);
  ASSERT_FALSE(second.trace.records.empty());
  EXPECT_GE(second.trace.records.front().test_accuracy,
            first.trace.final_accuracy() - 0.1);
  std::remove(cfg.warm_start_path.c_str());
}

}  // namespace
}  // namespace fedl::harness

// Tests for the exact offline oracle (validating the greedy per-epoch
// optimum) and the harness report printers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/rng.h"
#include "core/regret.h"
#include "harness/report.h"
#include "offline_oracle.h"

namespace fedl {
namespace {

sim::EpochContext random_ctx(std::size_t k, Rng& rng) {
  sim::EpochContext ctx;
  ctx.epoch = 1;
  for (std::size_t i = 0; i < k; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = rng.uniform(0.1, 12.0);
    o.data_size = 10;
    o.tau_loc = rng.uniform(0.1, 3.0);
    o.tau_cm_est = rng.uniform(0.05, 1.0);
    ctx.available.push_back(o);
  }
  return ctx;
}

TEST(ExactOracle, EmptyContext) {
  sim::EpochContext ctx;
  const auto sel = core::exact_per_epoch_optimum(ctx, 10.0, 2);
  EXPECT_FALSE(sel.feasible);
  EXPECT_TRUE(sel.ids.empty());
}

TEST(ExactOracle, PicksNFastestWhenBudgetSlack) {
  Rng rng(1);
  const auto ctx = random_ctx(8, rng);
  const auto sel = core::exact_per_epoch_optimum(ctx, 1e9, 3);
  ASSERT_TRUE(sel.feasible);
  EXPECT_EQ(sel.ids.size(), 3u);
  // Must match the greedy optimum when the budget never binds.
  const double greedy = core::per_epoch_optimum(ctx, 1e9, 3);
  EXPECT_NEAR(sel.objective, greedy, 1e-9);
}

TEST(ExactOracle, InfeasibleBudget) {
  Rng rng(2);
  const auto ctx = random_ctx(5, rng);
  const auto sel = core::exact_per_epoch_optimum(ctx, 1e-6, 2);
  EXPECT_FALSE(sel.feasible);
}

TEST(ExactOracle, RespectsBudgetCap) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto ctx = random_ctx(7, rng);
    const double cap = rng.uniform(5.0, 30.0);
    const auto sel = core::exact_per_epoch_optimum(ctx, cap, 3);
    if (sel.feasible) {
      EXPECT_LE(sel.cost, cap + 1e-9);
      EXPECT_GE(sel.ids.size(), 3u);
    }
  }
}

class GreedyVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyVsExact, GreedyNeverBeatsExactAndIsCloseUnderSlackCaps) {
  Rng rng(GetParam());
  const auto ctx = random_ctx(9, rng);
  // Cap generous enough that the 3 cheapest always fit (greedy feasibility).
  const double cap = 40.0;
  const auto exact = core::exact_per_epoch_optimum(ctx, cap, 3);
  const double greedy = core::per_epoch_optimum(ctx, cap, 3);
  ASSERT_TRUE(exact.feasible);
  // Exact is a lower bound on any feasible selection's objective.
  EXPECT_GE(greedy, exact.objective - 1e-9);
  // With a slack cap, greedy (n fastest) is optimal.
  EXPECT_NEAR(greedy, exact.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsExact,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(GreedyVsExactTight, GapIsBounded) {
  // Under tight caps greedy may be suboptimal but must stay feasible-ish and
  // within a small factor on random instances.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const auto ctx = random_ctx(8, rng);
    // Tight-ish cap: roughly the cost of 3 average clients.
    const double cap = 3.0 * 6.0;
    const auto exact = core::exact_per_epoch_optimum(ctx, cap, 3);
    if (!exact.feasible) continue;
    std::vector<std::size_t> picked;
    const double greedy = core::per_epoch_optimum(ctx, cap, 3, &picked);
    if (picked.size() < 3) continue;  // greedy couldn't meet the quota
    EXPECT_GE(greedy, exact.objective - 1e-9);
    EXPECT_LE(greedy, 3.0 * exact.objective + 1e-9);
  }
}

// --- report printers ---------------------------------------------------------------

fl::TrainTrace trace_with(std::string name,
                          std::vector<std::pair<double, double>> time_acc) {
  fl::TrainTrace t;
  t.algorithm = std::move(name);
  std::size_t round = 0;
  for (auto [time, acc] : time_acc) {
    fl::TraceRecord r;
    r.epoch = ++round;
    r.round = round;
    r.sim_time_s = time;
    r.test_accuracy = acc;
    t.records.push_back(r);
  }
  return t;
}

TEST(Report, TraceSeriesHeaderAndRows) {
  std::ostringstream os;
  harness::print_trace_series(os, "FigX", "FedL",
                              trace_with("FedL", {{1.0, 0.2}, {2.0, 0.4}}));
  const std::string s = os.str();
  EXPECT_NE(s.find("== Series: FigX / FedL"), std::string::npos);
  EXPECT_NE(s.find("epoch,round,time_s"), std::string::npos);
  // Two data rows.
  EXPECT_NE(s.find("\n1,1,1,"), std::string::npos);
  EXPECT_NE(s.find("\n2,2,2,"), std::string::npos);
}

TEST(Report, AccuracyAtTimeTable) {
  std::ostringstream os;
  harness::print_accuracy_at_time_table(
      os, 1.5,
      {trace_with("A", {{1.0, 0.3}, {2.0, 0.6}}),
       trace_with("B", {{1.0, 0.5}})});
  const std::string s = os.str();
  EXPECT_NE(s.find("accuracy after 1.5s"), std::string::npos);
  EXPECT_NE(s.find("0.3"), std::string::npos);  // A at t=1.5 -> 0.3
  EXPECT_NE(s.find("0.5"), std::string::npos);
}

TEST(Report, TimeToAccuracyReportsSaving) {
  std::ostringstream os;
  harness::print_time_to_accuracy_table(
      os, 0.5,
      {trace_with("FedL", {{10.0, 0.6}}),
       trace_with("Base", {{40.0, 0.6}})});
  const std::string s = os.str();
  EXPECT_NE(s.find("saving vs best baseline: 75%"), std::string::npos);
}

TEST(Report, TimeToAccuracyNeverCase) {
  std::ostringstream os;
  harness::print_time_to_accuracy_table(
      os, 0.9, {trace_with("A", {{1.0, 0.3}})});
  EXPECT_NE(os.str().find("never"), std::string::npos);
}

TEST(Report, RoundsToAccuracyTable) {
  std::ostringstream os;
  harness::print_rounds_to_accuracy_table(
      os, 0.35, {trace_with("A", {{1.0, 0.3}, {2.0, 0.4}})});
  const std::string s = os.str();
  EXPECT_NE(s.find("federated rounds to accuracy"), std::string::npos);
  EXPECT_NE(s.find("| 2"), std::string::npos);
}

}  // namespace
}  // namespace fedl

// Scheduler tests: the two-level experiment-grid scheduler must (a) never
// let trial runners plus worker leases exceed the thread budget, (b) keep
// every per-trial result and decision trace bit-identical between a serial
// run (--jobs 1 --threads 1) and any (jobs, threads) combination, and
// (c) stay deadlock-free when trials outnumber slots. The suite runs under
// TSan via `ctest -L sanitize` and doubles as the grid smoke for
// `ctest -L perf` (a mini 2-setting × 2-algorithm grid must complete).
//
// The budget here is configured explicitly (4 or 8) instead of from
// hardware_concurrency so the concurrent paths are exercised — and TSan
// sees real cross-thread traffic — even on a single-core CI box.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"

namespace fedl {
namespace {

TEST(Scheduler, ConfigureDefaultsAndShares) {
  Scheduler& s = Scheduler::instance();
  s.configure(8, 2);
  EXPECT_EQ(s.stats().thread_budget, 8u);
  EXPECT_EQ(s.max_concurrent_trials(), 2u);
  s.reset_stats();
  {
    // A trial's share is 8 slots / 2 trials = 4 (3 workers): of the 7
    // workers this non-trial caller gets, 4 are stolen.
    const auto lease = s.lease(8);
    EXPECT_EQ(lease.chunks(), 8u);
    EXPECT_EQ(s.stats().stolen_slots, 4u);
  }

  s.configure(3, 16);  // jobs clamp to the budget
  EXPECT_EQ(s.max_concurrent_trials(), 3u);
  s.reset_stats();
  {
    // Share 3 / 3 = 1 slot, the caller's own: every worker is stolen.
    const auto lease = s.lease(3);
    EXPECT_EQ(lease.chunks(), 3u);
    EXPECT_EQ(s.stats().stolen_slots, 2u);
  }

  s.configure(0, 1);  // 0 = hardware concurrency, at least one slot
  EXPECT_GE(s.stats().thread_budget, 1u);
}

TEST(Scheduler, LeaseAccountingAndStealing) {
  Scheduler& s = Scheduler::instance();
  s.configure(8, 2);
  s.reset_stats();

  {
    // A pinned fan-out (`--threads 3`) asks for at most 3 chunks. The
    // non-trial caller is charged 1 slot, so 7 remain.
    const auto pinned = s.lease(3);
    EXPECT_EQ(pinned.chunks(), 3u);
    EXPECT_EQ(s.stats().leased_slots, 2u);

    // An auto fan-out takes the idle remainder beyond its share.
    const auto greedy = s.lease(8);
    EXPECT_EQ(greedy.chunks(), 6u);  // 8 - 1 (caller) - 2 (pinned) workers
    EXPECT_EQ(s.stats().leased_slots, 7u);
    EXPECT_EQ(s.stats().steal_count, 1u);
    EXPECT_EQ(s.stats().stolen_slots, 2u);  // 5 granted - 3 in the share

    // Budget exhausted: further requests run inline.
    const auto empty = s.lease(5);
    EXPECT_EQ(empty.chunks(), 1u);
  }
  // Leases are RAII: everything returned.
  EXPECT_EQ(s.stats().leased_slots, 0u);
  EXPECT_LE(s.stats().peak_inflight, s.stats().thread_budget);
}

TEST(Scheduler, NestedLeasesComposeWithThreadedGemm) {
  // Three nesting levels drawing from one budget: J trial runners, a
  // per-trial client fan-out lease, and — inside each fan-out body — a
  // threshold-crossing gemm whose macro loop takes its own lease. The sum
  // of runners and leases must never exceed the budget (the gemm simply
  // runs serial when the budget is saturated), and every lease must be
  // returned afterwards.
  Scheduler& s = Scheduler::instance();
  s.configure(8, 2);
  s.reset_stats();
  // 2·m·n·k ≈ 15.7 MFLOP clears the gemm-internal threading threshold.
  const std::size_t m = 256, n = 192, k = 160;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f);

  s.run_trials(4, [&](std::size_t) {
    const auto lease = s.lease(4);
    std::vector<std::vector<float>> cs(lease.chunks(),
                                       std::vector<float>(m * n));
    lease.run(0, 2 * lease.chunks(), [&](std::size_t chunk, std::size_t) {
      gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
           cs[chunk].data());
      const SchedulerStats st = s.stats();
      EXPECT_LE(st.inflight(), st.thread_budget);
    });
  });

  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.trials_run, 4u);
  EXPECT_EQ(st.active_trials, 0u);
  EXPECT_EQ(st.leased_slots, 0u);
  EXPECT_LE(st.peak_inflight, st.thread_budget);
  s.configure(0, 1);
}

TEST(Scheduler, BudgetNeverExceededWhenTrialsOutnumberSlots) {
  Scheduler& s = Scheduler::instance();
  s.configure(4, 4);
  s.reset_stats();

  const std::size_t trials = 12;
  std::atomic<std::size_t> peak_seen{0};
  std::vector<std::size_t> runs(trials, 0);
  s.run_trials(trials, [&](std::size_t i) {
    const auto lease = s.lease(9);
    const SchedulerStats st = s.stats();
    EXPECT_LE(st.inflight(), st.thread_budget);
    std::size_t prev = peak_seen.load();
    while (prev < st.inflight() &&
           !peak_seen.compare_exchange_weak(prev, st.inflight())) {
    }
    ++runs[i];
  });

  for (std::size_t i = 0; i < trials; ++i)
    EXPECT_EQ(runs[i], 1u) << "trial " << i << " must run exactly once";
  const SchedulerStats st = s.stats();
  EXPECT_EQ(st.trials_run, trials);
  EXPECT_EQ(st.active_trials, 0u);
  EXPECT_EQ(st.leased_slots, 0u);
  EXPECT_LE(st.peak_inflight, st.thread_budget);
  EXPECT_LE(peak_seen.load(), st.thread_budget);
}

TEST(Scheduler, RethrowsLowestIndexTrialError) {
  Scheduler& s = Scheduler::instance();
  s.configure(4, 4);
  std::atomic<std::size_t> completed{0};
  try {
    s.run_trials(8, [&](std::size_t i) {
      if (i == 2 || i == 5)
        throw std::runtime_error("trial " + std::to_string(i));
      ++completed;
    });
    FAIL() << "expected the trial error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 2");
  }
  // A throwing trial must not stop the rest of the grid.
  EXPECT_EQ(completed.load(), 6u);
  EXPECT_EQ(s.stats().active_trials, 0u);
}

// -- Experiment-grid determinism ---------------------------------------

harness::ScenarioConfig tiny_scenario(std::size_t threads) {
  harness::ScenarioConfig cfg;
  cfg.task = harness::Task::kFmnistLike;
  cfg.num_clients = 6;
  cfg.n_min = 2;
  cfg.budget = 80.0;
  cfg.max_epochs = 4;
  cfg.train_samples = 120;
  cfg.test_samples = 60;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 8;
  cfg.eval_cap = 32;
  cfg.dane.sgd_steps = 1;
  cfg.seed = 5;
  cfg.num_threads = threads;
  // Non-empty so decision events are recorded; defer_trace keeps them in
  // RunResult::trace_jsonl and never touches the file.
  cfg.trace_out = "scheduler_test_deferred.jsonl";
  cfg.defer_trace = true;
  return cfg;
}

struct GridOut {
  std::vector<std::string> jsonl;
  std::vector<double> final_loss;
  std::vector<std::size_t> epochs;
};

// The mini grid from fig_common::run_roster: 2 settings x 2 algorithms,
// Experiments shared per setting, one scheduler trial per cell.
GridOut run_mini_grid(std::size_t budget, std::size_t jobs,
                      std::size_t threads) {
  Scheduler::instance().configure(budget, jobs);
  const std::vector<std::string> roster = {"fedl", "fedavg"};
  const bool iids[2] = {true, false};

  std::vector<std::unique_ptr<harness::Experiment>> exps;
  struct Spec {
    std::size_t setting;
    std::size_t alg;
  };
  std::vector<Spec> trials;
  for (std::size_t si = 0; si < 2; ++si) {
    harness::ScenarioConfig cfg = tiny_scenario(threads);
    cfg.iid = iids[si];
    exps.push_back(std::make_unique<harness::Experiment>(cfg));
    for (std::size_t ai = 0; ai < roster.size(); ++ai)
      trials.push_back({si, ai});
  }

  std::vector<std::unique_ptr<harness::RunResult>> res(trials.size());
  Scheduler::instance().run_trials(trials.size(), [&](std::size_t i) {
    harness::Experiment& exp = *exps[trials[i].setting];
    auto strat = harness::make_strategy(roster[trials[i].alg], exp.config());
    res[i] = std::make_unique<harness::RunResult>(exp.run(*strat));
  });

  GridOut out;
  for (const auto& r : res) {
    out.jsonl.push_back(r->trace_jsonl);
    out.final_loss.push_back(r->trace.final_loss());
    out.epochs.push_back(r->epochs_run);
  }
  return out;
}

TEST(SchedulerGrid, TraceBitIdenticalSerialVsJobs4) {
  const GridOut serial = run_mini_grid(4, 1, 1);
  // jobs 4, threads 0: four concurrent trials, each drawing leftover slots
  // from the shared budget (work stealing on).
  const GridOut par = run_mini_grid(4, 4, 0);

  ASSERT_EQ(serial.jsonl.size(), par.jsonl.size());
  for (std::size_t i = 0; i < serial.jsonl.size(); ++i) {
    EXPECT_FALSE(serial.jsonl[i].empty()) << "trial " << i;
    EXPECT_EQ(serial.jsonl[i], par.jsonl[i]) << "trial " << i;
    EXPECT_EQ(serial.final_loss[i], par.final_loss[i]) << "trial " << i;
    EXPECT_EQ(serial.epochs[i], par.epochs[i]) << "trial " << i;
  }
}

TEST(SchedulerGrid, MoreTrialsThanSlotsStillDeterministic) {
  // Width (min(jobs, budget) = 2) below the 4-cell grid: runners claim
  // trials from the shared counter, results must still be byte-identical.
  const GridOut serial = run_mini_grid(4, 1, 1);
  const GridOut narrow = run_mini_grid(2, 2, 0);
  ASSERT_EQ(serial.jsonl.size(), narrow.jsonl.size());
  for (std::size_t i = 0; i < serial.jsonl.size(); ++i)
    EXPECT_EQ(serial.jsonl[i], narrow.jsonl[i]) << "trial " << i;
}

TEST(SchedulerGrid, MiniGridCompletesWithoutDeadlock) {
  // `ctest -L perf` smoke: a concurrent 2x2 grid with stealing enabled
  // finishes and reports sane scheduler accounting.
  Scheduler::instance().reset_stats();
  const GridOut par = run_mini_grid(4, 4, 0);
  EXPECT_EQ(par.jsonl.size(), 4u);
  const SchedulerStats st = Scheduler::instance().stats();
  EXPECT_EQ(st.trials_run, 4u);
  EXPECT_EQ(st.active_trials, 0u);
  EXPECT_EQ(st.leased_slots, 0u);
  EXPECT_LE(st.peak_inflight, st.thread_budget);
}

}  // namespace
}  // namespace fedl

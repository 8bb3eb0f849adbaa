// Shared driver for the figure benches (DESIGN.md §3).
//
// Every accuracy figure (Figs. 2–5) runs the paper's roster (FedL, FedCS,
// FedAvg, Pow-d) on IID and non-IID variants of one task and prints one CSV
// series per (algorithm, setting) plus the in-text tables the paper quotes.
// The budget figures (Figs. 6–7) sweep the budget and report the final loss
// per algorithm. Flags let a full-scale run reproduce the paper's exact
// model sizes (--scale 1.0) while the defaults finish on a laptop CPU.
//
// The grid is embarrassingly parallel: every (algorithm, setting[, budget])
// cell is an independent trial, so the benches submit them through the
// process-wide Scheduler. `--jobs J` runs J trials concurrently and
// `--threads K` pins each trial's intra-epoch fan-out (default 0 = each
// trial draws from the scheduler's remaining thread budget, so `--jobs`
// alone saturates the machine); `--thread-budget B` caps the total
// (default: all hardware threads). Every per-trial trace and JSONL decision
// record is bit-identical to a `--jobs 1 --threads 1` run — trials keep
// seed-derived RNG streams and ordered reductions, and results/traces are
// committed in grid order.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/logging.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "obs/session.h"
#include "parallel/scheduler.h"

namespace fedl::bench {

inline harness::ScenarioConfig scenario_from_flags(const Flags& flags,
                                                   harness::Task task) {
  harness::ScenarioConfig cfg;
  cfg.task = task;
  const bool cifar = task == harness::Task::kCifarLike;
  cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 12));
  cfg.n_min = static_cast<std::size_t>(flags.get_int("n", 4));
  // The budget is the binding stop (the paper's long-term constraint);
  // max_epochs is only a safety cap above the budget-induced horizon T_C.
  cfg.budget = flags.get_double("budget", 900.0);
  cfg.max_epochs =
      static_cast<std::size_t>(flags.get_int("epochs", cifar ? 45 : 60));
  cfg.train_samples =
      static_cast<std::size_t>(flags.get_int("samples", cifar ? 400 : 600));
  cfg.test_samples = static_cast<std::size_t>(flags.get_int("test", 250));
  cfg.width_scale = flags.get_double("scale", cifar ? 0.1 : 0.08);
  cfg.batch_cap = static_cast<std::size_t>(flags.get_int("batch", 24));
  cfg.eval_cap = static_cast<std::size_t>(flags.get_int("eval", 160));
  cfg.theta = flags.get_double("theta", 0.5);
  // FedL candidate-pruning width (--width 0 = exact full-E_t solve).
  cfg.selection_width =
      static_cast<std::size_t>(flags.get_int("width", 0));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  cfg.dane.sgd_steps =
      static_cast<std::size_t>(flags.get_int("sgd-steps", 3));
  // Per-client training fan-out. The default 0 draws each trial's fan-out
  // from the scheduler's remaining thread budget (so --jobs alone uses the
  // whole machine, and a bare run uses all cores); an explicit K pins it.
  // Thread count never changes the numbers, only the wall clock.
  cfg.num_threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  // Live health plane: --monitor streams the run through the invariant
  // monitor (regret envelope, budget pacing, estimator drift, dropout
  // windows); --strict-monitor promotes any firing to FEDL_CHECK; --digest
  // chains the per-epoch determinism digests into trace and manifest.
  cfg.monitor = flags.get_bool("monitor", false);
  cfg.strict_monitor = flags.get_bool("strict-monitor", false);
  if (cfg.strict_monitor) cfg.monitor = true;
  cfg.record_digests = flags.get_bool("digest", false);
  // Event-driven execution (DESIGN.md §12): --async kills the epoch barrier
  // and aggregates on FedBuff-style buffer flushes of --buffer-k updates
  // with 1/(1+staleness)^(--staleness-exp) damping; --flush-timeout flushes
  // a short buffer after that much virtual time (0 = K-only).
  cfg.async.enabled = flags.get_bool("async", false);
  cfg.async.buffer_k =
      static_cast<std::size_t>(flags.get_int("buffer-k", 4));
  cfg.async.staleness_exponent = flags.get_double("staleness-exp", 0.5);
  cfg.async.flush_timeout_s = flags.get_double("flush-timeout", 0.0);
  // UCB exploration bonus on the --width pruning score (0 = pure exploit).
  cfg.width_explore = flags.get_double("width-explore", 0.0);
  return cfg;
}

// Applies the grid-level concurrency flags to the process-wide scheduler:
// --jobs (concurrent trials, default 1), --thread-budget (total worker
// slots, default 0 = hardware concurrency).
inline void configure_scheduler_from_flags(const Flags& flags) {
  Scheduler::instance().configure(
      static_cast<std::size_t>(flags.get_int("thread-budget", 0)),
      static_cast<std::size_t>(flags.get_int("jobs", 1)));
}

// Destination of a bench's --json-out report: the named file, or stdout
// when the path is empty. The file is opened here, before the bench runs,
// so an unwritable path fails at once; finish() throws when the report did
// not reach the file. Either way the bench exits 1 naming the path instead
// of leaving run_benches.sh a stale BENCH_*.json.
class JsonReport {
 public:
  explicit JsonReport(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    file_.open(path_, std::ios::trunc);
    if (!file_) throw ConfigError("cannot open --json-out file " + path_);
  }

  std::ostream& stream() { return path_.empty() ? std::cout : file_; }

  void finish() {
    if (path_.empty()) return;
    file_.close();
    if (!file_) throw ConfigError("cannot write --json-out file " + path_);
  }

 private:
  std::string path_;
  std::ofstream file_;
};

struct FigureRun {
  std::string setting;  // "IID" or "Non-IID"
  std::vector<fl::TrainTrace> traces;
};

// Appends the trials' deferred JSONL buffers (set defer_trace =
// obs::trace_requested()) to --trace-out in trial order, making the shared
// file byte-identical for any --jobs value.
inline void commit_traces(
    const std::vector<std::unique_ptr<harness::RunResult>>& results) {
  for (const auto& r : results)
    if (r) obs::append_trace(r->trace_jsonl);
}

// Runs the paper roster on both data distributions: one scheduler trial per
// (setting, algorithm) cell. The two Experiments (dataset + partition) are
// built once per setting and shared by the setting's trials — Experiment::run
// only reads them. The scenario flags are the binary's last reads: any flag
// still unread is rejected before the first dataset is built.
inline std::vector<FigureRun> run_roster(const Flags& flags,
                                         harness::Task task) {
  const harness::ScenarioConfig base = scenario_from_flags(flags, task);
  flags.require_all_read();
  const std::vector<std::string> roster = harness::paper_roster();
  std::vector<FigureRun> out(2);
  std::vector<std::unique_ptr<harness::Experiment>> experiments;
  struct TrialSpec {
    std::size_t setting;
    std::size_t alg;
  };
  std::vector<TrialSpec> trials;
  const bool iids[2] = {true, false};
  for (std::size_t si = 0; si < 2; ++si) {
    harness::ScenarioConfig cfg = base;
    cfg.iid = iids[si];
    cfg.defer_trace = obs::trace_requested();
    experiments.push_back(std::make_unique<harness::Experiment>(cfg));
    out[si].setting = iids[si] ? "IID" : "Non-IID";
    for (std::size_t ai = 0; ai < roster.size(); ++ai)
      trials.push_back({si, ai});
  }

  std::vector<std::unique_ptr<harness::RunResult>> results(trials.size());
  Scheduler::instance().run_trials(trials.size(), [&](std::size_t i) {
    harness::Experiment& exp = *experiments[trials[i].setting];
    auto strat = harness::make_strategy(roster[trials[i].alg], exp.config());
    results[i] = std::make_unique<harness::RunResult>(exp.run(*strat));
  });

  commit_traces(results);
  for (std::size_t i = 0; i < trials.size(); ++i)
    out[trials[i].setting].traces.push_back(std::move(results[i]->trace));
  return out;
}

// Figs. 2–3: accuracy vs training time, plus the in-text tables
// ("accuracy after T seconds", "completion time to target accuracy").
inline void accuracy_vs_time_figure(const std::string& figure,
                                    harness::Task task, const Flags& flags) {
  // The CIFAR-like task is deliberately harder (DESIGN.md §5): probe a
  // correspondingly lower completion-time target.
  const double acc_target = flags.get_double(
      "target-acc", task == harness::Task::kCifarLike ? 0.35 : 0.6);
  const auto runs = run_roster(flags, task);
  for (const auto& run : runs) {
    for (const auto& t : run.traces)
      harness::print_trace_series(std::cout, figure + " " + run.setting,
                                  t.algorithm, t);
  }
  for (const auto& run : runs) {
    std::cout << "-- Setting: " << run.setting << "\n";
    // "accuracy after X s": use the shortest total time so every algorithm
    // has data at the probe point.
    double probe = run.traces.front().total_time();
    for (const auto& t : run.traces)
      probe = std::min(probe, t.total_time());
    harness::print_accuracy_at_time_table(std::cout, probe, run.traces);
    harness::print_time_to_accuracy_table(std::cout, acc_target, run.traces);
  }
}

// Figs. 4–5: accuracy vs federated round plus "rounds to target" table.
inline void accuracy_vs_round_figure(const std::string& figure,
                                     harness::Task task, const Flags& flags) {
  const double acc_target = flags.get_double(
      "target-acc", task == harness::Task::kCifarLike ? 0.35 : 0.6);
  const auto runs = run_roster(flags, task);
  for (const auto& run : runs) {
    for (const auto& t : run.traces)
      harness::print_trace_series(std::cout, figure + " " + run.setting,
                                  t.algorithm, t);
  }
  for (const auto& run : runs) {
    std::cout << "-- Setting: " << run.setting << "\n";
    harness::print_rounds_to_accuracy_table(std::cout, acc_target,
                                            run.traces);
  }
}

// Figs. 6–7: final training loss as a function of the budget. One scheduler
// trial per (setting, budget, algorithm) cell; each trial owns its
// Experiment (the dataset build is part of the trial's work).
inline void budget_impact_figure(const std::string& figure,
                                 harness::Task task, const Flags& flags) {
  const std::vector<double> budgets =
      flags.get_double_list("budgets", {100, 200, 400, 800});
  const harness::ScenarioConfig base = scenario_from_flags(flags, task);
  flags.require_all_read();
  const std::vector<std::string> roster = harness::paper_roster();

  struct TrialSpec {
    bool iid;
    double budget;
    std::size_t alg;
  };
  std::vector<TrialSpec> trials;
  for (bool iid : {true, false})
    for (double budget : budgets)
      for (std::size_t ai = 0; ai < roster.size(); ++ai)
        trials.push_back({iid, budget, ai});

  std::vector<std::unique_ptr<harness::RunResult>> results(trials.size());
  Scheduler::instance().run_trials(trials.size(), [&](std::size_t i) {
    harness::ScenarioConfig cfg = base;
    cfg.iid = trials[i].iid;
    cfg.budget = trials[i].budget;
    cfg.defer_trace = obs::trace_requested();
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy(roster[trials[i].alg], cfg);
    results[i] = std::make_unique<harness::RunResult>(exp.run(*strat));
  });
  commit_traces(results);

  std::size_t cell = 0;
  for (bool iid : {true, false}) {
    const std::string setting = iid ? "IID" : "Non-IID";
    std::cout << "== Series: " << figure << " " << setting
              << " / loss_vs_budget\n";
    CsvTable table;
    table.add_column("budget");
    // The setting's first-budget trials name the columns.
    for (std::size_t ai = 0; ai < roster.size(); ++ai)
      table.add_column(results[cell + ai]->trace.algorithm + "_loss");
    for (double budget : budgets) {
      std::vector<double> row = {budget};
      for (std::size_t ai = 0; ai < roster.size(); ++ai)
        row.push_back(results[cell++]->trace.final_loss());
      table.append_row(row);
    }
    table.write(std::cout);
    std::cout << "\n";
  }
}

inline int figure_main(int argc, char** argv, const std::string& figure,
                       harness::Task task,
                       void (*fn)(const std::string&, harness::Task,
                                  const Flags&)) {
  return obs::run_main(argc, argv, "warn", [&](const Flags& flags) {
    configure_scheduler_from_flags(flags);
    fn(figure, task, flags);
  });
}

}  // namespace fedl::bench

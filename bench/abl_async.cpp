// Ablation A12: kill the epoch barrier. Event-driven execution (DESIGN.md
// §12) against lockstep at EQUAL budget on the Fig. 6 FMNIST setting —
// identical seeds, datasets, latency model and spend; the only difference is
// that the event engine aggregates on FedBuff-style buffer flushes instead
// of waiting for each cohort's straggler. Sweeps the buffer size K and the
// staleness-damping exponent a and reports, per cell, the simulated
// wall-clock to reach the lockstep run's final accuracy. The headline
// speedup is lockstep time-to-target over the best event-mode
// time-to-target; run_benches stamps the JSON into BENCH_async.json.
//
//   abl_async --ks=2,4,8 --staleness-exps=0,0.5 --budget=900
//             --json-out=BENCH_async.json
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "common/csv.h"
#include "fig_common.h"
#include "obs/json_writer.h"

namespace fedl::bench {
namespace {

struct Cell {
  bool async = false;
  std::size_t buffer_k = 0;      // 0 for the lockstep baseline
  double staleness_exp = 0.0;
  double final_acc = 0.0;
  double final_loss = 0.0;
  double sim_time_s = 0.0;       // virtual wall-clock of the whole run
  double cost_spent = 0.0;
  std::size_t epochs = 0;
  double time_to_target = 0.0;   // TrainTrace::kNever if never reached
  double speedup = 0.0;          // lockstep time-to-target / this cell's
};

// kNever/NaN render as JSON null (JsonWriter's NaN convention).
double json_or_null(double v) {
  return std::isfinite(v) ? v : std::numeric_limits<double>::quiet_NaN();
}

void write_json(std::ostream& os, const std::vector<Cell>& cells,
                double target, double budget) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("bench").value("abl_async");
  w.key("target_accuracy").value(target);
  w.key("budget").value(budget);
  w.key("cells").begin_array();
  for (const Cell& c : cells) {
    w.begin_object();
    w.key("mode").value(c.async ? "event" : "lockstep");
    w.key("buffer_k").value(static_cast<std::uint64_t>(c.buffer_k));
    w.key("staleness_exp").value(c.staleness_exp);
    w.key("final_accuracy").value(c.final_acc);
    w.key("final_loss").value(c.final_loss);
    w.key("sim_time_s").value(c.sim_time_s);
    w.key("cost_spent").value(c.cost_spent);
    w.key("epochs").value(static_cast<std::uint64_t>(c.epochs));
    w.key("time_to_target_s").value(json_or_null(c.time_to_target));
    w.key("speedup_vs_lockstep").value(json_or_null(c.speedup));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

void async_main(const Flags& flags) {
  configure_scheduler_from_flags(flags);

  const std::vector<double> ks = flags.get_double_list("ks", {2, 4, 8});
  const std::vector<double> exps =
      flags.get_double_list("staleness-exps", {0.0, 0.5});
  const std::string json_out = flags.get_string("json-out", "");
  const harness::ScenarioConfig base =
      scenario_from_flags(flags, harness::Task::kFmnistLike);
  // Event-mode cohorts are n_min-sized and cheap, so the budget horizon T_C
  // spans far more epochs than a lockstep run's; keep the budget — not the
  // lockstep epoch safety cap — as the binding stop.
  const auto event_epochs =
      static_cast<std::size_t>(flags.get_int("epochs", 220));
  const std::string strategy = flags.get_string("strategy", "fedl");
  // Target: the accuracy the lockstep run actually ends at, unless
  // --target-acc is given — "how much sooner does event mode get where the
  // barrier version finishes, on the same rent".
  const double target_flag = flags.get_double(
      "target-acc", std::numeric_limits<double>::quiet_NaN());
  flags.require_all_read();
  JsonReport report(json_out);

  // Cell 0 is the lockstep baseline the sweep is normalized against.
  struct Spec {
    bool async = false;
    std::size_t k = 0;
    double a = 0.0;
  };
  std::vector<Spec> specs;
  specs.push_back(Spec{});
  for (double kd : ks)
    for (double a : exps)
      specs.push_back(Spec{true, static_cast<std::size_t>(kd), a});

  std::vector<std::unique_ptr<harness::RunResult>> results(specs.size());
  Scheduler::instance().run_trials(specs.size(), [&](std::size_t i) {
    harness::ScenarioConfig cfg = base;
    cfg.defer_trace = obs::trace_requested();
    cfg.async.enabled = specs[i].async;
    if (specs[i].async) {
      cfg.async.buffer_k = specs[i].k;
      cfg.async.staleness_exponent = specs[i].a;
      cfg.max_epochs = event_epochs;
    }
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy(strategy, cfg);
    results[i] = std::make_unique<harness::RunResult>(exp.run(*strat));
  });
  commit_traces(results);

  const double target = std::isnan(target_flag)
                            ? results.front()->trace.final_accuracy()
                            : target_flag;
  std::vector<Cell> cells(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Cell& c = cells[i];
    const fl::TrainTrace& tr = results[i]->trace;
    c.async = specs[i].async;
    c.buffer_k = specs[i].k;
    c.staleness_exp = specs[i].a;
    c.final_acc = tr.final_accuracy();
    c.final_loss = tr.final_loss();
    c.sim_time_s = tr.total_time();
    c.cost_spent = tr.total_cost();
    c.epochs = results[i]->epochs_run;
    c.time_to_target = tr.time_to_accuracy(target);
  }
  const double lock_t = cells.front().time_to_target;
  for (Cell& c : cells)
    c.speedup = std::isfinite(c.time_to_target) && c.time_to_target > 0.0
                    ? lock_t / c.time_to_target
                    : 0.0;

  std::cout << "== Table: event-driven vs lockstep at equal budget "
            << "(target acc " << format_num(target) << ")\n";
  TextTable table({"mode", "K", "stale_exp", "final_acc", "vtime_s",
                   "t_to_target_s", "speedup", "epochs", "cost"});
  for (const Cell& c : cells) {
    table.add_row({c.async ? "event" : "lockstep",
                   c.async ? std::to_string(c.buffer_k) : "-",
                   c.async ? format_num(c.staleness_exp) : "-",
                   format_num(c.final_acc), format_num(c.sim_time_s),
                   std::isfinite(c.time_to_target)
                       ? format_num(c.time_to_target)
                       : "never",
                   format_num(c.speedup), std::to_string(c.epochs),
                   format_num(c.cost_spent)});
  }
  table.write(std::cout);

  const Cell* best = nullptr;
  for (const Cell& c : cells)
    if (c.async && (best == nullptr || c.speedup > best->speedup)) best = &c;
  if (best != nullptr)
    std::cout << "\nbest event cell: K=" << best->buffer_k
              << " a=" << best->staleness_exp << " speedup=" << best->speedup
              << "x (simulated wall-clock to lockstep's final accuracy)\n";

  write_json(report.stream(), cells, target, base.budget);
  report.finish();
}

}  // namespace
}  // namespace fedl::bench

int main(int argc, char** argv) {
  return fedl::obs::run_main(argc, argv, "warn", fedl::bench::async_main);
}

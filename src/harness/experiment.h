// Experiment harness: builds a full scenario (dataset → partition → edge
// environment → engine) and runs one selection strategy through the FL
// procedure of Algorithm 1, recording the training trace and regret/fit.
//
// All strategies compared in one scenario see identical randomness: the
// environment, datasets and model initialization are rebuilt from the same
// seeds for every run, so differences in the traces come from the selection
// policy alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/baselines.h"
#include "core/fedl_strategy.h"
#include "core/regret.h"
#include "core/strategy.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "fl/event_engine.h"
#include "fl/trace.h"
#include "obs/monitor.h"

namespace fedl::harness {

enum class Task { kFmnistLike, kCifarLike };

struct ScenarioConfig {
  Task task = Task::kFmnistLike;
  bool iid = true;
  std::size_t num_clients = 20;
  std::size_t n_min = 4;
  double budget = 600.0;
  std::size_t max_epochs = 200;  // safety cap on top of the budget stop
  std::size_t train_samples = 1500;
  std::size_t test_samples = 400;
  double width_scale = 0.25;   // model width (1.0 = exact paper CNN)
  double availability = 0.8;
  std::size_t batch_cap = 32;
  std::size_t eval_cap = 256;
  double theta = 0.5;          // θ: desired global-loss bound
  std::size_t fixed_iterations = 3;  // l for the non-adaptive baselines
  // FedL candidate-pruning width: max coordinates the prox solve sees per
  // epoch (0 = all of E_t, the exact paper algorithm).
  std::size_t selection_width = 0;
  // Terminate the run after this many consecutive epochs in which the
  // strategy selected nobody (e.g. every remaining epoch is budget-
  // infeasible) instead of spinning to max_epochs; 0 disables the guard.
  std::size_t empty_decision_streak = 8;
  std::uint64_t seed = 1;
  fl::DaneConfig dane;
  // FDMA split across the committed participants (bandwidth ablation).
  net::BandwidthPolicy bandwidth = net::BandwidthPolicy::kEqual;
  // Uplink update compression ("none" = the paper's constant payload).
  std::string compressor = "none";
  // Mid-epoch client failure model (0 = no failures, the paper's setting).
  fl::FaultSpec faults;
  // Server aggregation rule (paper formula vs selected-mean; DESIGN.md §4).
  fl::AggregationRule aggregation = fl::AggregationRule::kSelectedMean;
  // Event-driven (buffered-asynchronous) execution: async.enabled makes
  // run() dispatch each cohort to the virtual-clock EventEngine (DESIGN.md
  // §12) instead of resolving it in place — cohorts overlap, aggregation
  // happens on buffer flushes with staleness damping, and the trace gains
  // "event" records. Off (default) is lockstep.
  fl::AsyncConfig async;
  // UCB exploration bonus for the selection_width pruning score
  // (LearnerConfig::width_explore); 0 = pure exploit, bit-identical.
  double width_explore = 0.0;
  // Worker threads for per-client local training (FlEngine fan-out);
  // 1 = serial, 0 = draw the fan-out from the process-wide Scheduler's
  // remaining thread budget, K > 1 = request at most K-1 extra workers.
  // Results are bit-identical for every setting.
  std::size_t num_threads = 1;
  // When non-empty: start the global model from the parameters saved at
  // this path (if the file exists) and save the final model there after the
  // run. This is a warm start, not a resume: only w carries over. The
  // learner's duals and η̂/Δ̂ estimates, the budget ledger and every RNG
  // stream start afresh, so each run spends up to the full budget C — two
  // warm-started halves can spend 2C between them.
  std::string warm_start_path;
  // When non-empty: append one JSONL decision event per epoch to this file
  // (availability set, selection, ρ_t, duals, budget ledger, per-client
  // observations and realized outcomes). Several runs may share the file;
  // split downstream by the "algorithm" field.
  std::string trace_out;
  // When true, run() does not touch trace_out itself: the run's JSONL
  // events are returned in RunResult::trace_jsonl instead, and the caller
  // commits them (fig_common flushes trial buffers in roster order after a
  // scheduler grid run, so the file is byte-identical at any --jobs).
  bool defer_trace = false;
  // Live health plane (obs/monitor.h): stream empirical dynamic regret
  // against the Theorem 2 envelope, budget-pacing deviation, estimator
  // drift, and dropout windows through the invariant monitor. Fired
  // anomalies land in the decision trace (type "anomaly"), in
  // RunResult::anomalies, and in the obs.anomaly.* counters. With
  // strict_monitor, any firing escalates to FEDL_CHECK *after* the trace
  // records are committed, so the artifact shows what tripped.
  bool monitor = false;
  bool strict_monitor = false;
  // Determinism sentinel (obs/digest.h): chain an FNV-1a digest over each
  // epoch's trace record and the aggregated model parameters. Digests go to
  // RunResult::epoch_digests, to "digest" trace records (when tracing), and
  // the run's final digest folds into the process-wide manifest value.
  bool record_digests = false;
};

struct RunResult {
  fl::TrainTrace trace;
  core::RegretTracker regret;
  std::size_t epochs_run = 0;
  bool budget_exhausted = false;
  // The run's decision-trace events (newline-terminated JSONL) when
  // defer_trace was set; empty otherwise.
  std::string trace_jsonl;
  // Why the run stopped: "budget_exhausted" (ledger done or below the
  // cheapest rent), "infeasible_floor" (the n cheapest available clients
  // exceed the remainder), "empty_decisions" (empty_decision_streak hit),
  // or "max_epochs".
  std::string termination_reason;
  // Chained per-epoch determinism digests (record_digests); equal across
  // --jobs/--threads combinations on the same seed by the engine's
  // bit-identity guarantee.
  std::vector<std::uint64_t> epoch_digests;
  // Monitor firings in epoch order (cfg.monitor).
  std::vector<obs::AnomalyRecord> anomalies;
};

class Experiment {
 public:
  explicit Experiment(ScenarioConfig cfg);

  const ScenarioConfig& config() const { return cfg_; }
  const data::Dataset& train() const { return data_.train; }
  const data::Dataset& test() const { return data_.test; }

  // Runs the FL procedure with the given strategy until the budget is
  // exhausted or max_epochs is reached. Rebuilds environment/engine/model
  // from the scenario seeds so repeated runs are identical inputs. One loop
  // serves both execution modes: each epoch pays its cohort's rent at
  // dispatch, then resolves the cohort in place (lockstep) or dispatches it
  // to the event engine (cfg.async), and a reorder buffer emits resolved
  // epochs in epoch order — records, observe(), regret, monitor.
  RunResult run(core::SelectionStrategy& strategy);

 private:
  sim::EnvironmentSpec environment_spec() const;
  nn::Model build_model() const;

  ScenarioConfig cfg_;
  data::TrainTest data_;
  data::Partition partition_;
};

// Strategy factory for the bench binaries. Names: "fedl", "fedavg",
// "fedcs", "powd" (the paper's roster), "fedl-ind" (independent-rounding
// ablation), "fedl-fair" (fairness extension); any other name throws
// ConfigError.
std::unique_ptr<core::SelectionStrategy> make_strategy(
    const std::string& name, const ScenarioConfig& cfg);

// The roster the paper compares (Figs. 2–7).
std::vector<std::string> paper_roster();

}  // namespace fedl::harness

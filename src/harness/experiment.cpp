#include "harness/experiment.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "data/partition.h"
#include "nn/factory.h"
#include "nn/serialize.h"
#include "obs/digest.h"
#include "obs/json_writer.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/session.h"

namespace fedl::harness {
namespace {

data::SyntheticSpec dataset_spec(const ScenarioConfig& cfg) {
  data::SyntheticSpec s =
      cfg.task == Task::kFmnistLike
          ? data::fmnist_like_spec(cfg.train_samples, cfg.seed)
          : data::cifar_like_spec(cfg.train_samples, cfg.seed);
  return s;
}

// FNV-1a over the scenario fields that shape the run, so the manifest can
// tell two configurations apart without embedding the whole config. Not a
// full serialization: flags that only steer artifact emission (trace deferral,
// monitor toggles) are deliberately excluded — they don't change the
// decisions or the numerics.
std::uint64_t scenario_config_hash(const ScenarioConfig& cfg) {
  std::ostringstream os;
  os << static_cast<int>(cfg.task) << '|' << cfg.iid << '|'
     << cfg.num_clients << '|' << cfg.n_min << '|' << cfg.budget << '|'
     << cfg.max_epochs << '|' << cfg.train_samples << '|'
     << cfg.test_samples << '|' << cfg.width_scale << '|'
     << cfg.availability << '|' << cfg.batch_cap << '|' << cfg.eval_cap
     << '|' << cfg.theta << '|' << cfg.fixed_iterations << '|'
     << cfg.selection_width << '|' << cfg.empty_decision_streak << '|'
     << cfg.seed << '|' << static_cast<int>(cfg.bandwidth) << '|'
     << cfg.compressor << '|' << cfg.faults.dropout_prob << '|'
     << cfg.faults.timeout_multiplier << '|'
     << static_cast<int>(cfg.aggregation) << '|' << cfg.async.enabled << '|'
     << cfg.async.buffer_k << '|' << cfg.async.staleness_exponent << '|'
     << cfg.async.flush_timeout_s << '|' << cfg.width_explore;
  const std::string s = os.str();
  return obs::fnv1a(s.data(), s.size());
}

// Decision-time view of the FedL learner, captured BEFORE strategy.observe()
// mutates the duals and estimates — the trace must show the state the
// selection was actually made from. Empty vectors for non-FedL strategies.
struct LearnerSnapshot {
  bool present = false;
  double rho = 0.0;                // ρ_t committed by decide()
  double mu0 = 0.0;                // dual of the global-loss constraint h^0
  std::vector<double> x_frac;      // x̃_{t,k}, aligned with ctx.available
  std::vector<double> mu;          // μ^k per available client
  std::vector<double> eta_est;     // η̂_k used at decision time
  std::vector<double> delta_est;   // Δ̂_k used at decision time

  static LearnerSnapshot capture(const core::SelectionStrategy& strategy,
                                 const sim::EpochContext& ctx) {
    LearnerSnapshot snap;
    const auto* fedl = dynamic_cast<const core::FedLStrategy*>(&strategy);
    if (fedl == nullptr) return snap;
    snap.present = true;
    snap.rho = fedl->last_fraction().rho;
    const core::OnlineLearner& learner = fedl->learner();
    snap.mu0 = learner.mu0();
    snap.x_frac.reserve(ctx.available.size());
    snap.mu.reserve(ctx.available.size());
    snap.eta_est.reserve(ctx.available.size());
    snap.delta_est.reserve(ctx.available.size());
    for (const auto& o : ctx.available) {
      snap.x_frac.push_back(learner.x_fraction(o.id));
      snap.mu.push_back(learner.mu_k(o.id));
      snap.eta_est.push_back(learner.eta_estimate(o.id));
      snap.delta_est.push_back(learner.delta_estimate(o.id));
    }
    return snap;
  }
};

// One JSONL record per epoch: the decision context (who was available and at
// what posted cost/latency), the selection, the learner internals, the budget
// ledger, and the realized outcome. scripts/validate_trace.py checks this
// schema; DESIGN.md §Observability maps the fields to the paper's symbols.
// Events are serialized into `sink` (one line each); the run commits the
// whole buffer at the end — to the session's trace file (obs::append_trace),
// or via RunResult::trace_jsonl when the caller sequences trials
// (defer_trace).
void write_epoch_event(std::string& sink,
                       const std::string& algorithm,
                       const sim::EpochContext& ctx,
                       const core::Decision& decision,
                       const LearnerSnapshot& snap,
                       const fl::EpochOutcome& out,
                       const core::BudgetLedger& ledger,
                       double budget_total) {
  std::ostringstream line;
  {
    obs::JsonWriter w(line);
    w.begin_object();
    w.key("type").value("epoch");
    w.key("algorithm").value(algorithm);
    w.key("epoch").value(static_cast<std::uint64_t>(ctx.epoch));
    w.key("num_available").value(
        static_cast<std::uint64_t>(ctx.available.size()));
    w.key("num_selected").value(
        static_cast<std::uint64_t>(decision.selected.size()));
    w.key("iterations").value(
        static_cast<std::uint64_t>(out.num_iterations));
    w.key("rho");
    if (snap.present) w.value(snap.rho); else w.null();
    w.key("mu0");
    if (snap.present) w.value(snap.mu0); else w.null();
    w.key("eta_max").value(out.eta_max);
    w.key("latency_s").value(out.latency_s);
    w.key("epoch_cost").value(out.cost);
    w.key("budget_total").value(budget_total);
    w.key("budget_spent").value(ledger.spent());
    w.key("budget_remaining").value(ledger.remaining());
    w.key("train_loss_selected").value(out.train_loss_selected);
    w.key("train_loss_all").value(out.train_loss_all);
    w.key("test_loss").value(out.test_loss);
    w.key("test_accuracy").value(out.test_accuracy);
    w.key("num_dropped").value(static_cast<std::uint64_t>(out.num_dropped));
    w.key("clients").begin_array();
    for (std::size_t i = 0; i < ctx.available.size(); ++i) {
      const auto& o = ctx.available[i];
      // Position of this client in the selected/outcome arrays, if any.
      std::size_t sel = decision.selected.size();
      for (std::size_t j = 0; j < decision.selected.size(); ++j)
        if (decision.selected[j] == o.id) { sel = j; break; }
      const bool selected = sel < decision.selected.size();
      w.begin_object();
      w.key("id").value(static_cast<std::uint64_t>(o.id));
      w.key("cost").value(o.cost);
      w.key("data_size").value(static_cast<std::uint64_t>(o.data_size));
      w.key("tau_loc").value(o.tau_loc);
      w.key("tau_cm_est").value(o.tau_cm_est);
      w.key("x_frac");
      if (snap.present) w.value(snap.x_frac[i]); else w.null();
      w.key("mu");
      if (snap.present) w.value(snap.mu[i]); else w.null();
      w.key("eta_est");
      if (snap.present) w.value(snap.eta_est[i]); else w.null();
      w.key("delta_est");
      if (snap.present) w.value(snap.delta_est[i]); else w.null();
      w.key("selected").value(selected);
      w.key("eta_hat");
      if (selected && sel < out.client_eta.size())
        w.value(out.client_eta[sel]);
      else
        w.null();
      w.key("delta_hat");
      if (selected && sel < out.client_loss_reduction.size())
        w.value(out.client_loss_reduction[sel]);
      else
        w.null();
      w.key("latency_s");
      if (selected && sel < out.client_latency_s.size())
        w.value(out.client_latency_s[sel]);
      else
        w.null();
      w.key("completed_iters");
      if (selected && sel < out.client_completed_iters.size())
        w.value(static_cast<std::uint64_t>(out.client_completed_iters[sel]));
      else
        w.null();
      w.key("dropped").value(
          selected && sel < out.client_completed_iters.size() &&
          out.client_completed_iters[sel] < out.num_iterations);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  sink += line.str();
  sink += '\n';
}

// Virtual-clock event record (event-driven mode): one line per
// dispatch/complete/drop/flush, streamed in virtual-time order between the
// (reorder-buffered) epoch records. Field nullability is per kind —
// staleness only exists once an update arrives (complete, and flush's batch
// max), buffer occupancy is meaningless before anything can be buffered
// (dispatch), aggregated counts exist only for flushes, and a flush has no
// single client. scripts/validate_trace.py enforces exactly these rules.
void write_event_record(std::string& sink, const std::string& algorithm,
                        const fl::AsyncEvent& e) {
  const char* kind = "dispatch";
  switch (e.kind) {
    case fl::AsyncEvent::Kind::kDispatch: kind = "dispatch"; break;
    case fl::AsyncEvent::Kind::kComplete: kind = "complete"; break;
    case fl::AsyncEvent::Kind::kDrop: kind = "drop"; break;
    case fl::AsyncEvent::Kind::kFlush: kind = "flush"; break;
  }
  const bool is_flush = e.kind == fl::AsyncEvent::Kind::kFlush;
  const bool is_complete = e.kind == fl::AsyncEvent::Kind::kComplete;
  std::ostringstream line;
  {
    obs::JsonWriter w(line);
    w.begin_object();
    w.key("type").value("event");
    w.key("algorithm").value(algorithm);
    w.key("kind").value(kind);
    w.key("vt").value(e.vt);
    w.key("epoch").value(static_cast<std::uint64_t>(e.epoch));
    w.key("client");
    if (is_flush) w.null();
    else w.value(static_cast<std::uint64_t>(e.client));
    w.key("version").value(static_cast<std::uint64_t>(e.version));
    w.key("staleness");
    if (is_complete || is_flush)
      w.value(static_cast<std::uint64_t>(e.staleness));
    else
      w.null();
    w.key("buffer");
    if (e.kind == fl::AsyncEvent::Kind::kDispatch) w.null();
    else w.value(static_cast<std::uint64_t>(e.buffer));
    w.key("aggregated");
    if (is_flush) w.value(static_cast<std::uint64_t>(e.aggregated));
    else w.null();
    w.end_object();
  }
  sink += line.str();
  sink += '\n';
}

// Determinism-sentinel record: the chain digest after folding in this
// epoch's trace record and the aggregated model parameters. `prev` lets
// scripts/validate_trace.py check chain continuity without recomputing.
void write_digest_event(std::string& sink, const std::string& algorithm,
                        std::size_t epoch, std::uint64_t prev,
                        std::uint64_t digest) {
  std::ostringstream line;
  {
    obs::JsonWriter w(line);
    w.begin_object();
    w.key("type").value("digest");
    w.key("algorithm").value(algorithm);
    w.key("epoch").value(static_cast<std::uint64_t>(epoch));
    w.key("hash").value("fnv1a64");
    w.key("prev").value(obs::digest_hex(prev));
    w.key("digest").value(obs::digest_hex(digest));
    w.end_object();
  }
  sink += line.str();
  sink += '\n';
}

// Structured anomaly record mirroring obs::AnomalyRecord.
void write_anomaly_event(std::string& sink, const std::string& algorithm,
                         const obs::AnomalyRecord& a) {
  std::ostringstream line;
  {
    obs::JsonWriter w(line);
    w.begin_object();
    w.key("type").value("anomaly");
    w.key("algorithm").value(algorithm);
    w.key("epoch").value(a.epoch);
    w.key("monitor").value(a.monitor);
    w.key("observed").value(a.observed);
    w.key("limit").value(a.limit);
    w.key("detail").value(a.detail);
    w.end_object();
  }
  sink += line.str();
  sink += '\n';
}

}  // namespace

Experiment::Experiment(ScenarioConfig cfg) : cfg_(cfg) {
  FEDL_CHECK_GT(cfg_.num_clients, 0u);
  FEDL_CHECK_GE(cfg_.num_clients, cfg_.n_min);
  data_ = data::make_synthetic_train_test(dataset_spec(cfg_),
                                          cfg_.test_samples);
  Rng prng(cfg_.seed ^ 0x9e3779b9ULL);
  partition_ =
      cfg_.iid ? data::partition_iid(data_.train, cfg_.num_clients, prng)
               : data::partition_noniid_principal(data_.train,
                                                  cfg_.num_clients,
                                                  /*principal_classes=*/2,
                                                  /*principal_frac=*/0.8,
                                                  prng);
}

sim::EnvironmentSpec Experiment::environment_spec() const {
  sim::EnvironmentSpec env;
  env.num_clients = cfg_.num_clients;
  env.expected_participants = std::max<std::size_t>(1, cfg_.n_min);
  env.device.availability_prob = cfg_.availability;
  env.device.seed = cfg_.seed * 31 + 7;
  env.channel.seed = cfg_.seed * 37 + 11;
  env.online.seed = cfg_.seed * 41 + 13;
  const data::Dataset& tr = data_.train;
  env.device.bits_per_sample =
      static_cast<double>(tr.sample_numel()) * 32.0;
  env.bandwidth = cfg_.bandwidth;
  return env;
}

nn::Model Experiment::build_model() const {
  Rng mrng(cfg_.seed * 43 + 17);
  nn::ModelSpec ms;
  ms.width_scale = cfg_.width_scale;
  ms.l2_reg = fl::kGamma;
  if (cfg_.task == Task::kFmnistLike) {
    ms.image_h = ms.image_w = 28;
    ms.channels = 1;
    return nn::make_fmnist_cnn(ms, mrng);
  }
  ms.image_h = ms.image_w = 32;
  ms.channels = 3;
  return nn::make_cifar_cnn(ms, mrng);
}

RunResult Experiment::run(core::SelectionStrategy& strategy) {
  // Fresh, seed-identical world per run; both execution modes race on the
  // same physics and differ only in the execute step of the epoch loop.
  sim::EdgeEnvironment env(environment_spec(), partition_);
  fl::EngineConfig ec;
  ec.dane = cfg_.dane;
  ec.aggregation = cfg_.aggregation;
  ec.compressor = cfg_.compressor;
  // Event mode draws mid-flight failures itself from this spec at dispatch
  // (an async dropout is a total loss, not a partial barrier harvest);
  // run_local_jobs never injects faults, so there is no double application.
  ec.faults = cfg_.faults;
  ec.batch_cap = cfg_.batch_cap;
  ec.eval_cap = cfg_.eval_cap;
  ec.num_threads = cfg_.num_threads;
  ec.seed = cfg_.seed * 47 + 19;
  fl::FlEngine engine(&data_.train, &data_.test, &env, build_model(), ec);

  if (!cfg_.warm_start_path.empty()) {
    std::ifstream probe(cfg_.warm_start_path);
    if (probe.good()) {
      engine.set_global_params(nn::load_params(cfg_.warm_start_path));
      FEDL_INFO << "warm-started the global model from "
                << cfg_.warm_start_path
                << " (learner, ledger and RNG streams start afresh)";
    }
  }

  core::BudgetLedger ledger(cfg_.budget);
  core::RegretConfig rc;
  rc.theta = cfg_.theta;
  rc.n_min = cfg_.n_min;
  RunResult result{fl::TrainTrace{strategy.name(), {}},
                   core::RegretTracker(cfg_.num_clients, rc),
                   0,
                   false,
                   {},
                   {},
                   {},
                   {}};

  // Manifest identity for this run (last-wins across a grid; per-run detail
  // lives in the trace).
  obs::set_manifest_field("seed", static_cast<std::uint64_t>(cfg_.seed));
  obs::set_manifest_field("algorithm", result.trace.algorithm);
  obs::set_manifest_field("config_hash",
                          obs::digest_hex(scenario_config_hash(cfg_)));

  // The FedL view of the strategy (learner internals, pacing cap) — null
  // for the baselines.
  auto* fedl_strategy = dynamic_cast<core::FedLStrategy*>(&strategy);

  std::optional<obs::InvariantMonitor> monitor;
  if (cfg_.monitor) monitor.emplace();
  obs::DigestChain digest;

  // Structured decision telemetry, buffered per run so the whole trial
  // commits as one block (the session truncated the shared file when it
  // opened; concurrent grid trials never interleave lines).
  const bool tracing = cfg_.defer_trace || obs::trace_requested();
  std::string trace_buffer;

  // Event-driven execution (cfg.async): cohorts overlap on a virtual clock
  // and aggregate on buffer flushes. Lockstep resolves each cohort in place.
  std::optional<fl::EventEngine> evt;
  if (cfg_.async.enabled)
    evt.emplace(&engine, &env, cfg_.async, cfg_.seed * 71 + 23);

  // The reorder buffer, keyed by epoch: the decision-time state an epoch
  // needs when its cohort resolves. Event-mode outcomes arrive out of
  // dispatch order (a big straggler cohort can outlive several later ones),
  // while observe()/regret/trace must consume the context and learner
  // snapshot of the *dispatching* epoch.
  struct PendingEpoch {
    sim::EpochContext ctx;  // in-flight members filtered out
    core::Decision decision;
    LearnerSnapshot snap;
    double rho = 0.0;
    double cap = 0.0;
    double remaining = 0.0;  // the ledger's remainder at decide
    std::optional<fl::CohortOutcome> outcome;  // set once resolved
  };
  std::map<std::size_t, PendingEpoch> pending;

  std::size_t cumulative_rounds = 0;
  // Running max of resolve times. Lockstep resolves each epoch at
  // sim_time + latency_s, so there it is the running sum of epoch latencies.
  double sim_time = 0.0;
  // Once the remainder cannot rent even the cheapest possible client, the FL
  // procedure is over (Algorithm 1's `while C ≥ 0` with no affordable rent).
  const double min_rent = sim::kCostLo;

  // Consecutive epochs in which the strategy selected nobody: when the
  // learner keeps declaring epochs infeasible (tight budget, expensive
  // availability draws) the run would otherwise spin to max_epochs paying
  // evaluation cost for empty rounds.
  std::size_t empty_streak = 0;
  std::vector<double> floor_costs;  // affordable_floor's per-epoch scratch

  // Advances the virtual clock to the next flush boundary, streams that
  // turn's events into the trace, and files resolved cohorts.
  auto advance = [&]() {
    evt->run_until_flush();
    for (const fl::AsyncEvent& e : evt->take_events())
      if (tracing) write_event_record(trace_buffer, result.trace.algorithm, e);
    for (fl::CohortOutcome& co : evt->take_resolved())
      pending.at(co.outcome.epoch).outcome = std::move(co);
  };

  // Emits every resolved epoch in contiguous epoch order — the only path
  // that writes records, calls observe() and feeds the monitor.
  // Strict-monitor anomalies FEDL_CHECK from inside, after the trace
  // commits.
  auto drain = [&]() {
    while (!pending.empty() && pending.begin()->second.outcome) {
      const PendingEpoch& pe = pending.begin()->second;
      const fl::EpochOutcome& out = pe.outcome->outcome;
      // The epoch record is also the digest input, so it is built whenever
      // either consumer needs it.
      if (tracing || cfg_.record_digests) {
        std::string epoch_line;
        write_epoch_event(epoch_line, result.trace.algorithm, pe.ctx,
                          pe.decision, pe.snap, out, ledger, cfg_.budget);
        if (cfg_.record_digests) {
          const std::uint64_t prev = digest.value();
          digest.update(epoch_line.data(), epoch_line.size());
          const nn::ParamVec& w = engine.global_params();
          if (!w.empty()) digest.update(w.data(), w.size() * sizeof(w[0]));
          result.epoch_digests.push_back(digest.value());
          if (tracing)
            write_digest_event(epoch_line, result.trace.algorithm,
                               pe.ctx.epoch, prev, digest.value());
        }
        if (tracing) trace_buffer += epoch_line;
      }
      strategy.observe(pe.ctx, pe.decision, out);
      result.regret.record(pe.ctx, pe.remaining, pe.decision, pe.rho, out);

      if (monitor) {
        obs::EpochSample sample;
        sample.epoch = static_cast<std::uint64_t>(pe.ctx.epoch);
        // Theorem 2 bounds FedL's regret only — the baselines make no such
        // promise, so their (larger) regret is not an anomaly.
        if (fedl_strategy != nullptr) {
          sample.regret = result.regret.regret();
          sample.regret_bound = core::theorem2_regret_bound(
              kTheoremConstants, result.regret.v_phi(),
              result.regret.v_h(), result.regret.v_h_step_max(),
              static_cast<double>(result.regret.epochs()));
        }
        sample.epoch_cost = out.cost;
        if (fedl_strategy != nullptr && !pe.decision.selected.empty())
          sample.pacing_cap = pe.cap;
        sample.budget_spent = ledger.spent();
        sample.budget_total = cfg_.budget;
        // Empty epochs yield no η observation: eta_max would read as a bogus
        // 0.0 and fake an estimator collapse.
        if (!pe.decision.selected.empty()) sample.eta_max = out.eta_max;
        sample.num_selected = static_cast<double>(pe.decision.selected.size());
        sample.num_dropped = static_cast<double>(out.num_dropped);
        const auto fired = monitor->on_epoch(sample);
        for (const auto& a : fired) {
          FEDL_WARN << "monitor anomaly [" << a.monitor << "] epoch "
                    << a.epoch << ": " << a.detail;
          if (tracing)
            write_anomaly_event(trace_buffer, result.trace.algorithm, a);
          result.anomalies.push_back(a);
        }
        if (!fired.empty() && cfg_.strict_monitor) {
          // Commit what we have before dying so the trace shows what tripped
          // (the session's crash hook flushes the artifacts it owns; the
          // buffered trace is ours to write).
          if (tracing && !cfg_.defer_trace) {
            obs::append_trace(trace_buffer);
            trace_buffer.clear();
          }
          FEDL_CHECK(false) << "--strict-monitor: " << fired.front().monitor
                            << " anomaly at epoch " << fired.front().epoch
                            << " — " << fired.front().detail;
        }
      }

      cumulative_rounds += out.num_iterations;
      sim_time = std::max(sim_time, pe.outcome->resolve_vt);
      fl::TraceRecord rec;
      rec.epoch = pe.ctx.epoch;
      rec.round = cumulative_rounds;
      rec.sim_time_s = sim_time;
      rec.cost_spent = ledger.spent();
      rec.train_loss = out.train_loss_all;
      rec.test_loss = out.test_loss;
      rec.test_accuracy = out.test_accuracy;
      rec.num_selected = pe.decision.selected.size();
      rec.num_iterations = out.num_iterations;
      rec.eta = out.eta_max;
      result.trace.records.push_back(rec);
      ++result.epochs_run;
      pending.erase(pending.begin());
    }
  };

  for (std::size_t t = 0; t < cfg_.max_epochs; ++t) {
    if (ledger.exhausted() || ledger.remaining() < min_rent) {
      result.budget_exhausted = true;
      result.termination_reason = "budget_exhausted";
      break;
    }
    FEDL_PROFILE_SCOPE("harness.epoch");
    const sim::EpochContext& raw = env.advance_epoch();

    // A client still training an earlier cohort cannot be re-rented: the
    // decision maker sees the availability set minus the in-flight members.
    PendingEpoch pe;
    sim::EpochContext& ctx = pe.ctx;
    ctx.epoch = raw.epoch;
    ctx.available.reserve(raw.available.size());
    for (const auto& o : raw.available)
      if (!evt || !evt->client_inflight(o.id)) ctx.available.push_back(o);

    // Constraint (3b) requires at least n participants per epoch; when the
    // remaining budget cannot rent even the n cheapest available clients
    // (the affordable floor falls short of them), the FL procedure is
    // infeasible and terminates.
    floor_costs.clear();
    for (const auto& o : ctx.available) floor_costs.push_back(o.cost);
    if (core::affordable_floor(floor_costs, cfg_.n_min, ledger.remaining())
            .count < std::min(cfg_.n_min, floor_costs.size())) {
      result.budget_exhausted = true;
      result.termination_reason = "infeasible_floor";
      break;
    }

    pe.remaining = ledger.remaining();
    {
      FEDL_PROFILE_SCOPE("strategy.decide");
      pe.decision = strategy.decide(ctx, ledger);
    }
    const core::Decision& decision = pe.decision;
    if (decision.selected.empty()) {
      ++empty_streak;
      if (cfg_.empty_decision_streak > 0 &&
          empty_streak >= cfg_.empty_decision_streak) {
        result.termination_reason = "empty_decisions";
        break;
      }
    } else {
      empty_streak = 0;
    }

    // Guard the strategy contract: selected clients must be available.
    for (std::size_t id : decision.selected)
      FEDL_CHECK(ctx.is_available(id))
          << strategy.name() << " selected unavailable client " << id;

    // Snapshot decision-time learner state before observe() advances it.
    if (tracing || cfg_.record_digests)
      pe.snap = LearnerSnapshot::capture(strategy, ctx);
    pe.rho = static_cast<double>(
        std::max<std::size_t>(1, decision.num_iterations));
    if (fedl_strategy != nullptr) {
      pe.rho = fedl_strategy->last_fraction().rho;
      pe.cap = fedl_strategy->last_fraction().cap;
    }

    // Spend commits when the rent is paid, at dispatch: results still in
    // flight can never overdraw the ledger (decide() capped the cohort by
    // remaining()). The same left-to-right sum as run_epoch's out.cost.
    double cohort_cost = 0.0;
    for (std::size_t id : decision.selected) cohort_cost += ctx.find(id)->cost;
    ledger.charge(cohort_cost);

    const std::size_t epoch = ctx.epoch;
    if (!evt) {
      fl::CohortOutcome& co = pe.outcome.emplace();
      co.outcome = engine.run_epoch(decision.selected, decision.num_iterations);
      co.resolve_vt = sim_time + co.outcome.latency_s;
    } else if (decision.selected.empty()) {
      // No cohort to dispatch; the epoch still evaluates the current model
      // (lockstep's empty run_epoch) and resolves immediately at vt now.
      fl::CohortOutcome& co = pe.outcome.emplace();
      co.outcome.epoch = epoch;
      const fl::CohortEval ev = engine.evaluate_cohort({});
      co.outcome.train_loss_selected = ev.train_loss_selected;
      co.outcome.train_loss_all = ev.train_loss_all;
      co.outcome.test_loss = ev.test_loss;
      co.outcome.test_accuracy = ev.test_accuracy;
      co.dispatch_vt = evt->now();
      co.resolve_vt = evt->now();
    } else {
      evt->dispatch(epoch, decision.selected,
                    std::max<std::size_t>(1, decision.num_iterations),
                    cohort_cost);
    }
    pending.emplace(epoch, std::move(pe));

    // Event mode: advance to the next flush boundary, where aggregation
    // happens and feedback becomes available — the next decide() runs
    // against the post-flush model.
    if (evt) advance();
    drain();
  }

  // Stragglers still in flight must land: their rent is spent and the
  // learner deserves the feedback. Each turn flushes at most once.
  while (evt && !evt->drained()) {
    advance();
    drain();
  }
  FEDL_CHECK(pending.empty())
      << pending.size() << " dispatched epochs never resolved";

  if (ledger.exhausted()) result.budget_exhausted = true;
  if (result.termination_reason.empty())
    result.termination_reason = "max_epochs";
  if (cfg_.defer_trace)
    result.trace_jsonl = std::move(trace_buffer);
  else if (tracing)
    obs::append_trace(trace_buffer);
  // Fold this run's final chain value into the process-wide digest the
  // manifest reports (XOR-combined, so grid completion order is irrelevant).
  if (cfg_.record_digests) obs::note_run_digest(digest.value());
  if (!cfg_.warm_start_path.empty())
    nn::save_params(engine.global_params(), cfg_.warm_start_path);
  FEDL_INFO << strategy.name() << (evt ? " [async]" : "") << ": "
            << result.epochs_run << " epochs, acc="
            << result.trace.final_accuracy()
            << " time=" << result.trace.total_time() << "s"
            << " cost=" << result.trace.total_cost() << "/" << cfg_.budget;
  return result;
}

std::unique_ptr<core::SelectionStrategy> make_strategy(
    const std::string& name, const ScenarioConfig& cfg) {
  core::BaselineConfig base;
  base.n_select = cfg.n_min;
  base.iterations = cfg.fixed_iterations;
  base.seed = cfg.seed * 53 + 29;

  if (name == "fedl" || name == "fedl-ind" || name == "fedl-fair") {
    core::FedLConfig fc;
    fc.learner.n_min = cfg.n_min;
    fc.learner.theta = cfg.theta;
    fc.learner.selection_width = cfg.selection_width;
    fc.learner.width_explore = cfg.width_explore;
    fc.l_max = std::max<std::size_t>(cfg.fixed_iterations * 2, 4);
    fc.learner.rho_max = static_cast<double>(fc.l_max);
    fc.independent_rounding = (name == "fedl-ind");
    fc.fairness.enabled = (name == "fedl-fair");
    fc.seed = cfg.seed * 61 + 37;
    return std::make_unique<core::FedLStrategy>(cfg.num_clients, fc);
  }
  if (name == "fedavg")
    return std::make_unique<core::FedAvgStrategy>(base);
  if (name == "fedcs") {
    core::FedCsConfig fc;
    fc.base = base;
    // Generous deadline: FedCS admits "as many clients as possible".
    fc.deadline_s = 400.0;
    return std::make_unique<core::FedCsStrategy>(fc);
  }
  if (name == "powd") {
    core::PowDConfig pc;
    pc.base = base;
    pc.d = std::min<std::size_t>(cfg.num_clients,
                                 std::max<std::size_t>(2 * cfg.n_min, 8));
    return std::make_unique<core::PowDStrategy>(cfg.num_clients, pc);
  }
  throw ConfigError("unknown strategy: " + name);
}

std::vector<std::string> paper_roster() {
  return {"fedl", "fedcs", "fedavg", "powd"};
}

}  // namespace fedl::harness

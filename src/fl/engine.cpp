#include "fl/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"
#include "tensor/ops.h"

namespace fedl::fl {
namespace {

// Engine-level telemetry: epoch/client-task volume, fault events, and the
// realized fan-out shape. All counters, so the hot path stays a few relaxed
// atomic ops and results remain bit-identical at any thread count.
const obs::Counter& epochs_run_counter() {
  static const obs::Counter c("fl.epochs");
  return c;
}
const obs::Counter& client_iterations_counter() {
  static const obs::Counter c("fl.client_iterations");
  return c;
}
const obs::Counter& dropouts_counter() {
  static const obs::Counter c("fl.dropouts");
  return c;
}
const obs::Histogram& selected_hist() {
  static const obs::Histogram h("fl.epoch_selected", {1, 2, 4, 8, 16, 32, 64});
  return h;
}
const obs::Gauge& replica_bytes_gauge() {
  static const obs::Gauge g("fl.replica_bytes");
  return g;
}
const obs::Gauge& replica_count_gauge() {
  static const obs::Gauge g("fl.replicas");
  return g;
}
const obs::Gauge& model_bytes_gauge() {
  static const obs::Gauge g("fl.model_bytes");
  return g;
}

}  // namespace

FlEngine::FlEngine(const data::Dataset* train, const data::Dataset* test,
                   sim::EdgeEnvironment* env, nn::Model model,
                   EngineConfig cfg)
    : train_(train),
      test_(test),
      env_(env),
      model_(std::move(model)),
      cfg_(cfg),
      rng_(cfg.seed) {
  FEDL_CHECK(train != nullptr);
  FEDL_CHECK(test != nullptr);
  FEDL_CHECK(env != nullptr);
  FEDL_CHECK_GT(cfg_.batch_cap, 0u);
  FEDL_CHECK_GT(cfg_.eval_cap, 0u);
  w_ = model_.params_flat();
  test_batch_ = test_->head(cfg_.eval_cap);
  compressor_ = compress::make_compressor(
      cfg_.compressor, env_->num_clients(), cfg_.seed ^ 0x5eedULL,
      env_->spec().device.upload_bits);
  selected_mask_.assign(env_->num_clients(), 0);
}

void FlEngine::run_clients(
    const std::vector<std::size_t>& idx,
    const std::function<void(std::size_t, std::size_t)>& body) {
  // `--threads 0` offers the scheduler one chunk per client, `--threads K`
  // at most K; the grant is bounded by the free budget, and a zero grant
  // (num_threads 1, one client, or a contended budget) runs the clients
  // inline as chunk 0 — the trial's own slot always makes progress.
  const std::size_t n = idx.size();
  const Scheduler::WorkerLease lease = Scheduler::instance().lease(
      cfg_.num_threads == 0 ? n : std::min(n, cfg_.num_threads));
  // One replica per extra chunk (chunk 0 trains on model_), grown on the
  // calling thread before any fan-out so worker threads only ever index
  // the pool.
  ensure_replicas(lease.chunks() - 1);
  lease.run(0, n,
            [&](std::size_t chunk, std::size_t j) { body(chunk, idx[j]); });
}

void FlEngine::ensure_replicas(std::size_t count) {
  while (replicas_.size() < count) replicas_.push_back(model_.clone());
  epoch_max_replicas_ = std::max(epoch_max_replicas_, count);
}

nn::Model* FlEngine::client_scratch(std::size_t slot) {
  if (slot == 0) return &model_;
  FEDL_CHECK_LE(slot, replicas_.size());
  return &replicas_[slot - 1];
}

void FlEngine::set_global_params(nn::ParamVec w) {
  FEDL_CHECK_EQ(w.size(), w_.size());
  w_ = std::move(w);
}

void FlEngine::gather_client_batch(std::size_t client, nn::Batch* out) {
  const auto& indices = env_->client_data(client);
  FEDL_CHECK(!indices.empty()) << "client " << client << " has no epoch data";
  if (indices.size() <= cfg_.batch_cap) {
    train_->gather_into(indices, out);
    return;
  }
  auto pick = rng_.sample_without_replacement(indices.size(), cfg_.batch_cap);
  scratch_idx_.resize(pick.size());
  for (std::size_t i = 0; i < pick.size(); ++i)
    scratch_idx_[i] = indices[pick[i]];
  train_->gather_into(scratch_idx_, out);
}

double FlEngine::loss_on_indices(const std::vector<std::size_t>& indices) {
  if (indices.empty()) return 0.0;
  const std::vector<std::size_t>* use = &indices;
  if (indices.size() > cfg_.eval_cap) {
    auto pick = rng_.sample_without_replacement(indices.size(), cfg_.eval_cap);
    scratch_idx_.resize(pick.size());
    for (std::size_t i = 0; i < pick.size(); ++i)
      scratch_idx_[i] = indices[pick[i]];
    use = &scratch_idx_;
  }
  model_.set_params_flat(w_);
  train_->gather_into(*use, &eval_batch_);
  return model_.evaluate(eval_batch_).loss;
}

nn::EvalResult FlEngine::evaluate_test() {
  model_.set_params_flat(w_);
  return model_.evaluate(test_batch_);
}

void FlEngine::trim_replicas() {
  // Shrink the replica pool back to this epoch's realized fan-out width: a
  // wide epoch must not pin worst-case replica buffers forever. The gauges
  // report what the pool pins (each replica's weights, gradients and
  // activation caches). fl.model_bytes is the engine's own model: its
  // weights plus the evaluation scratch and fan-out chunk 0's training
  // scratch.
  if (replicas_.size() > epoch_max_replicas_)
    replicas_.resize(epoch_max_replicas_);
  std::size_t replica_bytes = 0;
  for (const auto& r : replicas_) replica_bytes += r.owned_bytes();
  replica_bytes_gauge().set(static_cast<double>(replica_bytes));
  replica_count_gauge().set(static_cast<double>(replicas_.size()));
  model_bytes_gauge().set(static_cast<double>(model_.owned_bytes()));
}

CohortEval FlEngine::evaluate_cohort(const std::vector<std::size_t>& selected) {
  FEDL_PROFILE_SCOPE("fl.evaluate");
  // Selected-membership is answered by a per-client-id mask built once,
  // keeping this O(|available| + |selected|).
  CohortEval ev;
  const sim::EpochContext& ctx = env_->context();
  for (std::size_t k : selected) {
    FEDL_CHECK_LT(k, selected_mask_.size());
    selected_mask_[k] = 1;
  }
  selected_data_.clear();
  all_data_.clear();
  for (const auto& obs : ctx.available) {
    const auto& idx = env_->client_data(obs.id);
    all_data_.insert(all_data_.end(), idx.begin(), idx.end());
    if (obs.id < selected_mask_.size() && selected_mask_[obs.id])
      selected_data_.insert(selected_data_.end(), idx.begin(), idx.end());
  }
  for (std::size_t k : selected) selected_mask_[k] = 0;
  ev.train_loss_selected = loss_on_indices(selected_data_);
  ev.train_loss_all = loss_on_indices(all_data_);
  const nn::EvalResult test = evaluate_test();
  ev.test_loss = test.loss;
  ev.test_accuracy = test.accuracy;
  return ev;
}

void FlEngine::run_local_jobs(const std::vector<LocalTrainJob>& jobs,
                              std::vector<LocalTrainResult>* results) {
  FEDL_PROFILE_SCOPE("fl.local_jobs");
  FEDL_CHECK(results != nullptr);
  results->resize(jobs.size());
  if (jobs.empty()) return;
  const std::size_t s = jobs.size();
  epoch_max_replicas_ = 0;

  // Minibatches gathered serially in job order (fixed RNG consumption).
  if (batches_.size() < s) batches_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    FEDL_CHECK_GT(jobs[i].iterations, 0u);
    gather_client_batch(jobs[i].client, &batches_[i]);
  }
  if (local_w_.size() < s) local_w_.resize(s);

  job_idx_.resize(s);
  for (std::size_t i = 0; i < s; ++i) job_idx_[i] = i;
  run_clients(job_idx_, [&](std::size_t slot, std::size_t i) {
    FEDL_PROFILE_SCOPE("fl.client_local_job");
    nn::Model* m = client_scratch(slot);
    LocalOracle oracle(m, &batches_[i]);
    LocalTrainResult& res = (*results)[i];
    res = LocalTrainResult{};
    // Local trajectory: w_local starts at the dispatch-time global model
    // and walks its own DANE steps with ḡ = ∇F_k(w_local) (empty
    // global_grad).
    nn::ParamVec& w_local = local_w_[i];
    w_local = w_;
    const nn::ParamVec no_global_grad;
    for (std::size_t it = 0; it < jobs[i].iterations; ++it) {
      const LocalUpdate u =
          dane_local_step(oracle, w_local, no_global_grad, cfg_.dane);
      axpy(1.0f, u.d, w_local);
      res.eta = std::max(res.eta, u.eta);
      res.loss_reduction += u.loss_before - u.loss_after;
      ++res.completed_iters;
    }
    client_iterations_counter().add(res.completed_iters);
    // The uplink carries d = w_local − w_base through the compressor
    // (per-client state, concurrent-safe).
    for (std::size_t p = 0; p < w_local.size(); ++p) w_local[p] -= w_[p];
    res.update = compressor_->apply(w_local, jobs[i].client);
  });
  trim_replicas();
}

std::vector<double> FlEngine::step_times(
    const std::vector<std::size_t>& selected,
    const std::vector<char>& uploaded) const {
  FEDL_CHECK_EQ(uploaded.size(), selected.size());
  std::vector<double> bits(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i)
    bits[i] = compressor_->payload_bits(uploaded[i] ? w_.size() : 0);
  return env_->step_times(selected, bits);
}

EpochOutcome FlEngine::run_epoch(const std::vector<std::size_t>& selected,
                                 std::size_t iterations) {
  FEDL_PROFILE_SCOPE("fl.run_epoch");
  epochs_run_counter().add();
  selected_hist().observe(static_cast<double>(selected.size()));
  const sim::EpochContext& ctx = env_->context();
  EpochOutcome out;
  out.epoch = ctx.epoch;
  out.selected = selected;
  out.num_iterations = selected.empty() ? 0 : iterations;

  const std::size_t p = w_.size();
  const std::size_t s = selected.size();
  epoch_max_replicas_ = 0;  // replica-pool high-water mark for this epoch

  if (s > 0) {
    FEDL_CHECK_GT(iterations, 0u);
    // One minibatch per client per epoch; the data a client holds is fixed
    // within the epoch (paper: D_{t,k} is per-epoch). Batches are gathered
    // into grow-only per-slot buffers (no fresh nn::Batch copies).
    if (batches_.size() < s) batches_.resize(s);
    weights_.resize(s);  // ϑ_k ∝ D_{t,k}
    double total_data = 0.0;
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t k = selected[i];
      const auto* obs = ctx.find(k);
      FEDL_CHECK(obs != nullptr) << "selected client " << k
                                 << " is not available in epoch " << ctx.epoch;
      gather_client_batch(k, &batches_[i]);
      weights_[i] = static_cast<double>(obs->data_size);
      total_data += weights_[i];
    }
    for (auto& wgt : weights_) wgt /= total_data;

    out.client_eta.assign(s, 0.0);
    out.client_loss_reduction.assign(s, 0.0);
    out.client_completed_iters.assign(s, 0);

    // Fault injection: a failing client dies before completing iteration
    // drop_iter_[i] (== iterations means it survives the epoch).
    drop_iter_.assign(s, iterations);
    if (cfg_.faults.dropout_prob > 0.0) {
      for (std::size_t i = 0; i < s; ++i) {
        if (rng_.bernoulli(cfg_.faults.dropout_prob)) {
          drop_iter_[i] = static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(iterations) - 1));
          ++out.num_dropped;
        }
      }
    }
    dropouts_counter().add(out.num_dropped);
    auto alive = [&](std::size_t i, std::size_t it) {
      return it < drop_iter_[i];
    };

    // Per-client scratch buffers reused across iterations (and across
    // epochs — grow-only); slot i is only ever touched by the task working
    // on client i, so fan-outs are race free and the ordered reductions
    // below are deterministic at any thread count (bit-identical to running
    // the clients inline).
    if (grads_.size() < s) grads_.resize(s);
    if (updates_.size() < s) updates_.resize(s);
    gbar_.resize(p);
    agg_.resize(p);

    for (std::size_t it = 0; it < iterations; ++it) {
      // Clients still alive this iteration (weights renormalized).
      alive_idx_.clear();
      double alive_weight = 0.0;
      for (std::size_t i = 0; i < s; ++i) {
        if (!alive(i, it)) continue;
        alive_idx_.push_back(i);
        alive_weight += weights_[i];
      }
      if (alive_idx_.empty()) break;  // every participant failed: epoch ends
      for (std::size_t i : alive_idx_) ++out.client_completed_iters[i];
      client_iterations_counter().add(alive_idx_.size());

      // Phase 1 (clients, concurrent): local gradients ∇F_k(w); then the
      // server reduces ḡ = Σ ϑ_k ∇F_k(w) in client order.
      {
        FEDL_PROFILE_SCOPE("fl.grad_phase");
        run_clients(alive_idx_, [&](std::size_t slot, std::size_t i) {
          FEDL_PROFILE_SCOPE("fl.client_grad");
          LocalOracle oracle(client_scratch(slot), &batches_[i]);
          oracle.loss_grad(w_, &grads_[i]);
        });
      }
      std::fill(gbar_.begin(), gbar_.end(), 0.0f);
      for (std::size_t i : alive_idx_)
        axpy(static_cast<float>(weights_[i] / alive_weight), grads_[i], gbar_);

      // Phase 2 (clients, concurrent): DANE corrections against ḡ,
      // compressed for the uplink; per-client compressor state keeps
      // concurrent calls safe. gbar_ is read-only during the fan-out.
      {
        FEDL_PROFILE_SCOPE("fl.dane_phase");
        run_clients(alive_idx_, [&](std::size_t slot, std::size_t i) {
          FEDL_PROFILE_SCOPE("fl.client_dane");
          LocalOracle oracle(client_scratch(slot), &batches_[i]);
          updates_[i] = dane_local_step(oracle, w_, gbar_, cfg_.dane);
          updates_[i].d = compressor_->apply(updates_[i].d, selected[i]);
        });
      }

      // Phase 3 (server): ordered reduction into the global model.
      FEDL_PROFILE_SCOPE("fl.aggregate");
      std::fill(agg_.begin(), agg_.end(), 0.0f);
      for (std::size_t i : alive_idx_) {
        out.client_eta[i] = std::max(out.client_eta[i], updates_[i].eta);
        out.client_loss_reduction[i] +=
            updates_[i].loss_before - updates_[i].loss_after;
        axpy(1.0f, updates_[i].d, agg_);
      }
      const double denom =
          cfg_.aggregation == AggregationRule::kPaperMean
              ? static_cast<double>(ctx.available.size())
              : static_cast<double>(alive_idx_.size());
      axpy(static_cast<float>(1.0 / denom), agg_, w_);
    }
    for (double e : out.client_eta) out.eta_max = std::max(out.eta_max, e);

    // Latency & cost from the analytical model: l step times per client,
    // each uploading its payload on the configured FDMA split.
    uploaded_.resize(s);
    for (std::size_t i = 0; i < s; ++i) uploaded_[i] = drop_iter_[i] > 0;
    const std::vector<double> step = step_times(selected, uploaded_);
    out.client_latency_s.assign(s, 0.0);
    double max_latency = 0.0;
    for (std::size_t i = 0; i < s; ++i) {
      const auto* obs = ctx.find(selected[i]);
      out.client_latency_s[i] = static_cast<double>(iterations) * step[i];
      // A failed client costs a timeout: the server waited past its nominal
      // finish time before declaring it dead.
      if (drop_iter_[i] < iterations)
        out.client_latency_s[i] *= cfg_.faults.timeout_multiplier;
      max_latency = std::max(max_latency, out.client_latency_s[i]);
      out.cost += obs->cost;
    }
    out.latency_s = max_latency;
  }

  trim_replicas();

  // Evaluation at the end-of-epoch model (extracted so the event-driven
  // path evaluates cohorts with the identical code and RNG order).
  const CohortEval ev = evaluate_cohort(selected);
  out.train_loss_selected = ev.train_loss_selected;
  out.train_loss_all = ev.train_loss_all;
  out.test_loss = ev.test_loss;
  out.test_accuracy = ev.test_accuracy;

  FEDL_DEBUG << "epoch " << out.epoch << " |S|=" << s << " iters="
             << out.num_iterations << " latency=" << out.latency_s
             << "s cost=" << out.cost << " loss=" << out.train_loss_all
             << " acc=" << out.test_accuracy;
  return out;
}

}  // namespace fedl::fl

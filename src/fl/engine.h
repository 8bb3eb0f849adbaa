// The federated training engine — Algorithm 1's inner loop (lines 2–5).
//
// Given a committed selection and iteration count for the current epoch, the
// engine runs the DANE iterations, aggregates on the server, accounts the
// modeled latency (paper §3.2 — the simulated clock, see DESIGN.md
// substitution 4) and measures everything the online learner needs as
// feedback: realized η_{t,k}, per-client marginal loss reductions, global
// loss F_t(w^{l_t}), test accuracy.
#pragma once

#include <cstdint>
#include <vector>

#include <functional>
#include <memory>

#include "compress/compressor.h"
#include "data/dataset.h"
#include "fl/dane.h"
#include "nn/model.h"
#include "sim/environment.h"

namespace fedl::fl {

enum class AggregationRule {
  // w += (1/|E_t|) Σ_k x_k d_k — the paper's formula verbatim.
  kPaperMean,
  // w += (1/|S_t|) Σ_{k∈S} d_k — normalize by the number of participants;
  // the standard FedAvg-style mean (default; see DESIGN.md §4).
  kSelectedMean,
};

// Mid-epoch client failure model (challenge 1's availability uncertainty,
// extended into the epoch itself): a selected client may die before
// finishing its iterations. Its partial updates up to the failure iteration
// are aggregated; afterwards it contributes nothing, but the server still
// pays a timeout on the latency accounting (it waited before giving up).
struct FaultSpec {
  double dropout_prob = 0.0;       // per selected client per epoch
  double timeout_multiplier = 1.5;  // waiting cost relative to nominal latency
};

struct EngineConfig {
  DaneConfig dane;
  AggregationRule aggregation = AggregationRule::kSelectedMean;
  FaultSpec faults;
  std::size_t batch_cap = 64;   // max samples per client minibatch
  // Max samples per loss/accuracy evaluation. Memory does not grow with it:
  // nn::Model::evaluate streams the samples through fixed slices.
  std::size_t eval_cap = 512;
  // Uplink update compression ("none", "quant8", "quant4", "topk10",
  // "topk1"); "none" reproduces the paper's constant payload s.
  std::string compressor = "none";
  // Per-client fan-out policy (the paper's cost model d_k(t) =
  // l_t(τ^loc + τ^cm) assumes clients train concurrently). Each phase takes
  // a Scheduler::lease: 0 asks for one chunk per client, K > 1 for at most
  // K chunks (K-1 workers, still bounded by the free budget), and 1 runs the
  // clients inline on the caller with no scheduler interaction.
  // Any value produces bit-identical EpochOutcomes: per-client work is
  // independent (one scratch model per fan-out chunk, each evaluation loads
  // its own point; per-client compressor state) and the aggregation
  // reduces in client order on the calling thread.
  std::size_t num_threads = 1;
  std::uint64_t seed = 17;
};

// One unit of asynchronous local work: client `client` trains `iterations`
// DANE steps starting from the engine's current global model, with ḡ taken
// as its own local gradient (no cross-client gradient averaging — in the
// event-driven mode there is no global barrier at which ḡ could be formed).
struct LocalTrainJob {
  std::size_t client = 0;
  std::size_t iterations = 0;
};

// What one LocalTrainJob produced, measured against the dispatch-time model.
struct LocalTrainResult {
  nn::ParamVec update;          // compressed-restored d = w_local − w_base
  double eta = 0.0;             // max η over the iterations
  double loss_reduction = 0.0;  // Σ_i F_k(before) − F_k(after)
  std::size_t completed_iters = 0;
};

// End-of-cohort evaluation snapshot at the engine's current global model.
struct CohortEval {
  double train_loss_selected = 0.0;  // F̃ over the cohort's clients' data
  double train_loss_all = 0.0;       // F over all currently-available data
  double test_loss = 0.0;
  double test_accuracy = 0.0;
};

struct EpochOutcome {
  std::size_t epoch = 0;
  std::vector<std::size_t> selected;
  std::size_t num_iterations = 0;
  double latency_s = 0.0;  // l_t · max_{k∈S}(τ^loc + τ^cm)
  double cost = 0.0;       // Σ_{k∈S} c_{t,k}
  double eta_max = 0.0;    // η_t = max_{k,i} η^i_{t,k}
  // Parallel to `selected`:
  std::vector<double> client_eta;             // max over iterations per client
  std::vector<double> client_loss_reduction;  // Σ_i F_k(w)−F_k(w+d), all iters
  std::vector<double> client_latency_s;       // d_k(t) realized
  // DANE iterations each client actually completed before dropping (equals
  // num_iterations for clients that survived the epoch). A client with zero
  // completed iterations produced no η/Δ observation at all.
  std::vector<std::size_t> client_completed_iters;
  double train_loss_selected = 0.0;  // F̃_t(w^{l_t})
  double train_loss_all = 0.0;       // F_t(w^{l_t})
  double test_loss = 0.0;
  double test_accuracy = 0.0;
  std::size_t num_dropped = 0;  // selected clients that failed mid-epoch
};

class FlEngine {
 public:
  // `train`/`test` outlive the engine; `env` supplies epoch context and must
  // have been advanced for the epoch being run.
  FlEngine(const data::Dataset* train, const data::Dataset* test,
           sim::EdgeEnvironment* env, nn::Model model, EngineConfig cfg);

  // Runs `iterations` DANE rounds with `selected` (client ids, all available
  // in the current context). Empty selection is a no-op epoch that still
  // evaluates the model.
  EpochOutcome run_epoch(const std::vector<std::size_t>& selected,
                         std::size_t iterations);

  // One iteration's simulated time τ^loc_k + τ^cm_k for each client of a
  // committed cohort (parallel to `selected`) — the step-time call of both
  // execution modes: run_epoch charges l of them per client, the event
  // engine spaces l unit steps by them. Each upload weighs the compressor's
  // payload_bits(num_params()); uploaded[i] == 0 marks a client that died
  // before its first upload and so sent an empty update (payload_bits(0)).
  std::vector<double> step_times(const std::vector<std::size_t>& selected,
                                 const std::vector<char>& uploaded) const;

  const nn::ParamVec& global_params() const { return w_; }
  void set_global_params(nn::ParamVec w);
  std::size_t num_params() const { return w_.size(); }
  const EngineConfig& config() const { return cfg_; }

  // F(w) over (a cap of) the given sample indices at the current w.
  double loss_on_indices(const std::vector<std::size_t>& indices);

  // Loss/accuracy on the test set (capped at eval_cap samples).
  nn::EvalResult evaluate_test();

  // Runs every job's local training independently from the current global
  // model (the event-driven path: updates are NOT applied to w — the caller
  // buffers them and aggregates on flush). Minibatches are gathered on the
  // calling thread in job order, so the engine RNG stream is consumed
  // deterministically; the training itself fans out across scheduler worker
  // leases exactly like run_epoch's phases and is bit-identical at any
  // thread count (per-job state only, results reduced nowhere).
  void run_local_jobs(const std::vector<LocalTrainJob>& jobs,
                      std::vector<LocalTrainResult>* results);

  // The end-of-epoch evaluation block of run_epoch, reusable at cohort
  // resolution in event mode: losses over the cohort's / all available
  // clients' data and the test metrics, all at the current global model and
  // the environment's *current* epoch context. Consumes engine RNG in the
  // exact order run_epoch's epilogue does.
  CohortEval evaluate_cohort(const std::vector<std::size_t>& selected);

 private:
  // Gathers client k's per-epoch minibatch into `out` (reused storage).
  void gather_client_batch(std::size_t client, nn::Batch* out);

  // Runs body(slot, i) for every index in `idx` over the chunks of one
  // Scheduler::lease sized by num_threads (inline when nothing is
  // granted). `slot` identifies the chunk (0 = calling thread) and picks
  // its scratch model (client_scratch); at most one live body per slot at
  // a time.
  // Bodies must only touch per-index and per-slot state; the call blocks
  // until every index is done.
  void run_clients(
      const std::vector<std::size_t>& idx,
      const std::function<void(std::size_t, std::size_t)>& body);

  // Grows the replica pool to at least `count` clones of model_ and records
  // the epoch's high-water mark (run_epoch trims back to it).
  void ensure_replicas(std::size_t count);

  // Trims the replica pool back to the epoch's fan-out high-water mark and
  // refreshes the fl.replica_bytes / fl.replicas / fl.model_bytes gauges.
  void trim_replicas();

  // Scratch model for fan-out chunk `slot`: the engine's own model for
  // chunk 0 (the calling thread), replicas_[slot - 1] for the others. Every
  // evaluation loads its own point and overwrites gradients and caches, so
  // scratch models are interchangeable across clients and the pool is keyed
  // by fan-out chunk (< thread budget), not by selected client.
  nn::Model* client_scratch(std::size_t slot);

  const data::Dataset* train_;
  const data::Dataset* test_;
  sim::EdgeEnvironment* env_;
  // Scratch model for evaluation and fan-out chunk 0; every use loads the
  // point it evaluates.
  nn::Model model_;
  EngineConfig cfg_;
  nn::ParamVec w_;   // global model
  Rng rng_;
  nn::Batch test_batch_;  // cached eval subset
  compress::CompressorPtr compressor_;
  // Scratch models for fan-out chunks 1..G (G = the phase's granted extra
  // workers): plain clones of model_ with private weights, gradients and
  // caches. Sized to the epoch's realized fan-out width and trimmed back
  // each epoch, so replica memory is O(G × |model|), not O(selected ×
  // |model|); serial and one-job calls hold none.
  std::vector<nn::Model> replicas_;
  std::size_t epoch_max_replicas_ = 0;  // pool high-water mark this epoch

  // Grow-only hot-path buffers, reused across epochs and iterations so the
  // steady-state inner loop performs no heap allocation (the per-epoch
  // EpochOutcome vectors are the only fresh storage — they are handed out).
  std::vector<nn::Batch> batches_;    // per-selected-client minibatches
  std::vector<nn::ParamVec> grads_;   // per-client ∇F_k(w)
  std::vector<LocalUpdate> updates_;  // per-client DANE corrections; d is
                                      // replaced by its restored uplink
  nn::ParamVec gbar_;                 // ḡ ordered-reduction buffer
  nn::ParamVec agg_;                  // aggregation ordered-reduction buffer
  std::vector<double> weights_;       // ϑ_k per selected client
  std::vector<std::size_t> drop_iter_;   // fault-injection schedule
  std::vector<char> uploaded_;           // drop_iter_ > 0, for step_times
  std::vector<std::size_t> alive_idx_;   // per-iteration survivor set
  std::vector<std::size_t> job_idx_;     // run_local_jobs fan-out index list
  std::vector<nn::ParamVec> local_w_;    // per-job local model buffers
  std::vector<std::size_t> scratch_idx_; // capped-sampling index buffer
  std::vector<std::size_t> selected_data_;  // epilogue sample index unions
  std::vector<std::size_t> all_data_;
  std::vector<char> selected_mask_;   // by client id, cleared per epoch
  nn::Batch eval_batch_;              // loss_on_indices gather buffer
};

}  // namespace fedl::fl

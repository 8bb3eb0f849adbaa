// The event-driven execution substrate: kills the epoch barrier.
//
// Lockstep run_epoch waits for the slowest selected client before
// aggregating, so one straggler's d_k(t) = l_t(τ^loc + τ^cm) sets the whole
// round's wall-clock — the cost/latency co-optimization failure mode of
// paper §3.2. EventEngine replaces the barrier with a discrete-event
// simulation on a deterministic *virtual* clock:
//
//  * dispatch: a committed cohort starts training immediately against the
//    current global model. A member's engagement of l iterations is executed
//    as a *chain* of unit steps — train one iteration, upload, continue from
//    whatever global model exists at that moment — exactly how an
//    asynchronous client would behave (and the async analog of lockstep's l
//    per-iteration aggregation rounds; a single monolithic l-step local walk
//    would drift toward the client optimum and pay the same rent for a far
//    weaker update). Each step's local work runs at its own event
//    (FlEngine::run_local_jobs — scheduler-leased fan-out, bit-identical at
//    any thread count) and completes one step latency later, where the step
//    latency is d_k/l from the same analytical d_k = l·(τ^loc + τ^cm)
//    run_epoch charges: both modes time a cohort with FlEngine::step_times
//    (over EdgeEnvironment::step_times, the one latency function) at the
//    compressor's payload, so lockstep and event mode race on identical
//    physics.
//  * complete: the finished step's update enters the staleness-tagged
//    aggregation buffer (staleness = global model versions missed since the
//    step started); the member's next step, if any, then starts from the
//    current model — after any flush this arrival itself triggered.
//  * drop: a mid-flight failure resolves at vt + timeout·d_k with nothing to
//    aggregate — in asynchronous FL a dropout is a total loss (there is no
//    barrier at which partial iterations could be collected).
//  * flush (FedBuff-style): when K updates are buffered, a virtual-time
//    deadline expires, or the queue drains, the buffer folds into the
//    global model with 1/(1+staleness)^a damping (core/staleness.h) and the
//    model version advances. Selection decisions are made at flush
//    boundaries, not global barriers.
//
// Determinism contract: the event loop itself is strictly single-threaded
// per trial; the only concurrency is inside run_local_jobs, which is already
// bit-identical at any --jobs/--threads. The event queue breaks virtual-time
// ties on (client id, dispatch sequence), so traces are byte-identical
// across thread configurations.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "fl/engine.h"
#include "sim/environment.h"

namespace fedl::fl {

// Buffered-asynchronous execution config (--async and friends).
struct AsyncConfig {
  bool enabled = false;
  // Aggregate when this many updates are buffered (FedBuff's K).
  std::size_t buffer_k = 4;
  // a in the 1/(1+staleness)^a damping; 0 = undamped buffered mean.
  double staleness_exponent = 0.5;
  // Flush a non-empty buffer this much virtual time after its first entry
  // arrived even if K was not reached; 0 disables the deadline.
  double flush_timeout_s = 0.0;
};

// One trace-visible event on the virtual clock (the "event" JSONL records).
struct AsyncEvent {
  enum class Kind { kDispatch, kComplete, kDrop, kFlush };
  Kind kind = Kind::kDispatch;
  double vt = 0.0;             // virtual time of the event
  std::size_t epoch = 0;       // cohort epoch (flush: latest dispatch epoch)
  std::size_t client = 0;      // dispatch/complete/drop (unused for flush)
  std::size_t version = 0;     // model version after the event
  std::size_t staleness = 0;   // complete: missed versions; flush: batch max
  std::size_t buffer = 0;      // aggregation-buffer occupancy after the event
  std::size_t aggregated = 0;  // flush only: updates folded into the model
};

// A fully-resolved cohort: every member completed or dropped, and the
// outcome was evaluated at the global model current at resolution time.
// `outcome` has the exact shape the learner's observe() and the trace
// writer consume in lockstep mode (per-member η, loss reductions, completed
// iterations, realized latencies, losses/accuracy).
struct CohortOutcome {
  EpochOutcome outcome;
  double dispatch_vt = 0.0;
  double resolve_vt = 0.0;  // vt at which the outcome was evaluated
};

class EventEngine {
 public:
  // `engine` and `env` outlive this object; `seed` drives the dispatch-time
  // dropout draws (its own stream, so the engine's minibatch RNG is
  // untouched by fault injection).
  EventEngine(FlEngine* engine, sim::EdgeEnvironment* env, AsyncConfig cfg,
              std::uint64_t seed);

  double now() const { return vt_; }
  std::size_t version() const { return version_; }
  std::size_t inflight() const { return inflight_count_; }
  bool client_inflight(std::size_t id) const;
  // Nothing queued, buffered, or awaiting evaluation: every dispatched
  // cohort has been resolved and handed out (or is waiting in take_*).
  bool drained() const {
    return queue_.empty() && buffer_.empty() && pending_eval_.empty();
  }

  // Dispatches a cohort at the current virtual time: runs each member's
  // FIRST unit step against the current global model (dropped members train
  // nothing; later steps train at their own events), schedules the first
  // completion/drop events, and emits one dispatch event per member.
  // `cohort_cost` is carried through to the outcome (the caller charges its
  // ledger at dispatch — spend commits when the rent is paid, not when
  // results arrive).
  void dispatch(std::size_t epoch, const std::vector<std::size_t>& selected,
                std::size_t iterations, double cohort_cost);

  // Advances the virtual clock until the next buffer flush; a draining
  // queue with a non-empty buffer flushes the remainder. Returns false only
  // when there was nothing left to do (no events, empty buffer). Cohorts
  // whose last member resolved are evaluated immediately after the flush —
  // in dispatch-epoch order — at the just-aggregated model.
  bool run_until_flush();

  // Moves out the cohorts fully resolved since the last call (evaluation
  // order: dispatch epoch ascending within each flush).
  std::vector<CohortOutcome> take_resolved();

  // Moves out the events emitted since the last call (virtual-time order).
  std::vector<AsyncEvent> take_events();

 private:
  struct InFlight {
    std::size_t client = 0;
    std::size_t cohort = 0;        // index into cohorts_
    std::size_t member = 0;        // index into the cohort's selected list
    std::size_t dispatch_version = 0;  // version the CURRENT step trains on
    std::size_t steps_total = 0;   // the engagement's iteration count l
    std::size_t steps_done = 0;
    double step_latency = 0.0;     // d_k / l: one iteration's virtual time
    bool dropped = false;
    LocalTrainResult result;       // the current step's result; empty if
                                   // dropped
  };
  struct Cohort {
    double dispatch_vt = 0.0;
    std::size_t unresolved = 0;
    EpochOutcome out;
  };
  struct BufferedUpdate {
    nn::ParamVec update;
    std::size_t dispatch_version = 0;
    std::size_t cohort_size = 0;  // |S| of the dispatch, for normalization
  };
  struct QueuedEvent {
    double vt = 0.0;
    std::size_t client = 0;
    std::uint64_t seq = 0;   // dispatch order: fixed tie-break of last resort
    std::size_t entry = 0;   // index into inflight_
  };
  // Min-heap order on (vt, client, seq): ties in virtual time resolve by
  // client id so the trace is reproducible at any --jobs/--threads.
  struct LaterEvent {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.vt != b.vt) return a.vt > b.vt;
      if (a.client != b.client) return a.client > b.client;
      return a.seq > b.seq;
    }
  };

  void do_flush();
  void resolve_pending_evals();

  FlEngine* engine_;
  sim::EdgeEnvironment* env_;
  AsyncConfig cfg_;
  Rng rng_;  // dropout draws only

  double vt_ = 0.0;
  std::size_t version_ = 0;   // global model version (flush count)
  std::uint64_t seq_ = 0;
  std::size_t last_dispatch_epoch_ = 0;

  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, LaterEvent>
      queue_;
  std::vector<InFlight> inflight_;   // append-only; resolved entries stay
  std::vector<char> inflight_mask_;  // by client id
  std::size_t inflight_count_ = 0;
  std::vector<Cohort> cohorts_;      // append-only by dispatch order
  std::vector<BufferedUpdate> buffer_;
  bool deadline_armed_ = false;
  double deadline_ = 0.0;

  std::vector<std::size_t> pending_eval_;  // cohort indices awaiting eval
  std::vector<CohortOutcome> resolved_;
  std::vector<AsyncEvent> events_;

  // Per-dispatch scratch (grow-only).
  std::vector<char> uploaded_;             // member index → not dropped
  std::vector<std::size_t> jobs_;          // clients of one run_local_jobs
  std::vector<LocalTrainResult> job_results_;
  std::vector<std::size_t> job_member_;    // job index → cohort member index
  std::vector<std::size_t> stale_scratch_; // flush staleness batch
  std::vector<std::size_t> cohort_scratch_;  // flush cohort-size batch
};

}  // namespace fedl::fl

#include "fl/event_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/staleness.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace fedl::fl {
namespace {

// Event-plane telemetry. Counters for event volume, gauges for the live
// clock/version/occupancy, a histogram for the staleness distribution the
// damping exponent acts on. All updates happen on the (single-threaded)
// event loop, so values are deterministic per seed.
const obs::Counter& dispatches_counter() {
  static const obs::Counter c("fl.async.dispatches");
  return c;
}
const obs::Counter& completes_counter() {
  static const obs::Counter c("fl.async.completes");
  return c;
}
const obs::Counter& drops_counter() {
  static const obs::Counter c("fl.async.drops");
  return c;
}
const obs::Counter& flushes_counter() {
  static const obs::Counter c("fl.async.flushes");
  return c;
}
const obs::Counter& timeout_flushes_counter() {
  static const obs::Counter c("fl.async.timeout_flushes");
  return c;
}
const obs::Gauge& version_gauge() {
  static const obs::Gauge g("fl.async.version");
  return g;
}
const obs::Gauge& inflight_gauge() {
  static const obs::Gauge g("fl.async.inflight");
  return g;
}
const obs::Gauge& vt_gauge() {
  static const obs::Gauge g("fl.async.vt");
  return g;
}
const obs::Histogram& staleness_hist() {
  static const obs::Histogram h("fl.async.staleness", {0, 1, 2, 4, 8, 16});
  return h;
}

}  // namespace

EventEngine::EventEngine(FlEngine* engine, sim::EdgeEnvironment* env,
                         AsyncConfig cfg, std::uint64_t seed)
    : engine_(engine), env_(env), cfg_(cfg), rng_(seed) {
  FEDL_CHECK(engine != nullptr);
  FEDL_CHECK(env != nullptr);
  FEDL_CHECK_GT(cfg_.buffer_k, 0u);
  FEDL_CHECK_GE(cfg_.staleness_exponent, 0.0);
  FEDL_CHECK_GE(cfg_.flush_timeout_s, 0.0);
  inflight_mask_.assign(env_->num_clients(), 0);
}

bool EventEngine::client_inflight(std::size_t id) const {
  return id < inflight_mask_.size() && inflight_mask_[id] != 0;
}

void EventEngine::dispatch(std::size_t epoch,
                           const std::vector<std::size_t>& selected,
                           std::size_t iterations, double cohort_cost) {
  FEDL_PROFILE_SCOPE("fl.async.dispatch");
  FEDL_CHECK(!selected.empty());
  FEDL_CHECK_GT(iterations, 0u);
  const std::size_t s = selected.size();
  last_dispatch_epoch_ = epoch;
  dispatches_counter().add(static_cast<std::uint64_t>(s));

  // Fault injection at dispatch: an asynchronous dropout is a total loss
  // (no barrier collects partial iterations), so a failing member trains
  // and uploads nothing and resolves at the timeout of its nominal finish.
  const FaultSpec& faults = engine_->config().faults;
  uploaded_.assign(s, 1);
  for (std::size_t i = 0; i < s; ++i)
    if (faults.dropout_prob > 0.0 && rng_.bernoulli(faults.dropout_prob))
      uploaded_[i] = 0;
  // The same step time the lockstep engine charges, so d_k(t) = l·(τ^loc +
  // τ^cm) split into l unit steps — event mode's advantage must come from
  // overlap, not from a friendlier latency model.
  const std::vector<double> step_s = engine_->step_times(selected, uploaded_);

  const std::size_t cohort_idx = cohorts_.size();
  cohorts_.push_back(Cohort{});
  Cohort& c = cohorts_.back();
  c.dispatch_vt = vt_;
  c.unresolved = s;
  EpochOutcome& out = c.out;
  out.epoch = epoch;
  out.selected = selected;
  out.num_iterations = iterations;
  out.cost = cohort_cost;
  out.client_eta.assign(s, 0.0);
  out.client_loss_reduction.assign(s, 0.0);
  out.client_latency_s.assign(s, 0.0);
  out.client_completed_iters.assign(s, 0);

  jobs_.clear();
  job_member_.clear();
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t k = selected[i];
    FEDL_CHECK_LT(k, inflight_mask_.size());
    FEDL_CHECK(inflight_mask_[k] == 0)
        << "client " << k << " dispatched while already in flight";
    const bool dropped = !uploaded_[i];
    const double nominal = static_cast<double>(iterations) * step_s[i];
    const double latency =
        dropped ? nominal * faults.timeout_multiplier : nominal;
    out.client_latency_s[i] = latency;
    out.latency_s = std::max(out.latency_s, latency);
    if (dropped) ++out.num_dropped;

    InFlight f;
    f.client = k;
    f.cohort = cohort_idx;
    f.member = i;
    f.dispatch_version = version_;
    f.steps_total = iterations;
    f.step_latency = step_s[i];
    f.dropped = dropped;
    const std::size_t entry = inflight_.size();
    inflight_.push_back(std::move(f));
    inflight_mask_[k] = 1;
    ++inflight_count_;
    // A dropped member resolves in one event at its timeout; a live one
    // completes its first unit step one step latency from now.
    queue_.push(
        QueuedEvent{vt_ + (dropped ? latency : step_s[i]), k, seq_++, entry});
    if (!dropped) {
      jobs_.push_back(k);
      job_member_.push_back(entry);
    }

    AsyncEvent ev;
    ev.kind = AsyncEvent::Kind::kDispatch;
    ev.vt = vt_;
    ev.epoch = epoch;
    ev.client = k;
    ev.version = version_;
    events_.push_back(ev);
  }
  drops_counter().add(static_cast<std::uint64_t>(out.num_dropped));
  inflight_gauge().set(static_cast<double>(inflight_count_));

  // Train the surviving members' first steps now, against the dispatch-time
  // model (each step's update will be stale by however many flushes land
  // before it arrives; later steps train at their own completion events).
  engine_->run_local_jobs(jobs_, &job_results_);
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    inflight_[job_member_[j]].result = std::move(job_results_[j]);
}

bool EventEngine::run_until_flush() {
  FEDL_PROFILE_SCOPE("fl.async.run");
  while (true) {
    const bool have_event = !queue_.empty();
    // Deadline flush: the buffer has waited flush_timeout_s of virtual time
    // without reaching K and nothing arrives before the deadline.
    if (deadline_armed_ && !buffer_.empty() &&
        (!have_event || deadline_ <= queue_.top().vt)) {
      vt_ = std::max(vt_, deadline_);
      timeout_flushes_counter().add();
      do_flush();
      resolve_pending_evals();
      return true;
    }
    if (!have_event) break;

    const QueuedEvent e = queue_.top();
    queue_.pop();
    vt_ = e.vt;  // queue times never precede the clock: vt is monotone
    InFlight& f = inflight_[e.entry];
    Cohort& c = cohorts_[f.cohort];
    bool filled = false;
    if (f.dropped) {
      AsyncEvent ev;
      ev.kind = AsyncEvent::Kind::kDrop;
      ev.vt = vt_;
      ev.epoch = c.out.epoch;
      ev.client = f.client;
      ev.version = version_;
      ev.buffer = buffer_.size();
      events_.push_back(ev);
    } else {
      const std::size_t stale = version_ - f.dispatch_version;
      staleness_hist().observe(static_cast<double>(stale));
      completes_counter().add();
      ++f.steps_done;
      buffer_.push_back(BufferedUpdate{std::move(f.result.update),
                                       f.dispatch_version,
                                       c.out.selected.size()});
      if (buffer_.size() == 1 && cfg_.flush_timeout_s > 0.0) {
        deadline_ = vt_ + cfg_.flush_timeout_s;
        deadline_armed_ = true;
      }
      // Accumulate the step into the member's engagement totals.
      c.out.client_eta[f.member] =
          std::max(c.out.client_eta[f.member], f.result.eta);
      c.out.eta_max = std::max(c.out.eta_max, f.result.eta);
      c.out.client_loss_reduction[f.member] += f.result.loss_reduction;
      ++c.out.client_completed_iters[f.member];  // one unit step
      filled = buffer_.size() >= cfg_.buffer_k;

      AsyncEvent ev;
      ev.kind = AsyncEvent::Kind::kComplete;
      ev.vt = vt_;
      ev.epoch = c.out.epoch;
      ev.client = f.client;
      ev.version = version_;
      ev.staleness = stale;
      ev.buffer = buffer_.size();
      events_.push_back(ev);
    }
    const bool engagement_over = f.dropped || f.steps_done >= f.steps_total;
    if (engagement_over) {
      inflight_mask_[f.client] = 0;
      --inflight_count_;
      inflight_gauge().set(static_cast<double>(inflight_count_));
      FEDL_CHECK_GT(c.unresolved, 0u);
      if (--c.unresolved == 0) pending_eval_.push_back(f.cohort);
    }
    // Flush BEFORE chaining the member's next step: an upload that fills
    // the buffer advances the model, and the client's next iteration pulls
    // the newest version — exactly what a live async worker would download.
    if (filled) {
      do_flush();
      resolve_pending_evals();
    }
    if (!engagement_over) {
      jobs_.clear();
      jobs_.push_back(f.client);
      engine_->run_local_jobs(jobs_, &job_results_);
      f.result = std::move(job_results_[0]);
      f.dispatch_version = version_;
      queue_.push(QueuedEvent{vt_ + f.step_latency, f.client, seq_++,
                              e.entry});
    }
    if (filled) return true;
  }
  // Queue drained: flush the remainder so no completed update is stranded.
  if (!buffer_.empty()) {
    do_flush();
    resolve_pending_evals();
    return true;
  }
  // All-dropped cohorts can resolve without any flush; evaluate them too.
  resolve_pending_evals();
  return false;
}

void EventEngine::do_flush() {
  FEDL_PROFILE_SCOPE("fl.async.flush");
  FEDL_CHECK(!buffer_.empty());
  stale_scratch_.clear();
  cohort_scratch_.clear();
  std::size_t max_stale = 0;
  for (const BufferedUpdate& b : buffer_) {
    const std::size_t stale = version_ - b.dispatch_version;
    stale_scratch_.push_back(stale);
    cohort_scratch_.push_back(b.cohort_size);
    max_stale = std::max(max_stale, stale);
  }
  const std::vector<double> weights = core::staleness_weights(
      stale_scratch_, cohort_scratch_, cfg_.staleness_exponent);
  // Damped cohort-normalized sum, reduced in arrival order on this thread —
  // the aggregation is deterministic by construction.
  nn::ParamVec w = engine_->global_params();
  for (std::size_t i = 0; i < buffer_.size(); ++i)
    axpy(static_cast<float>(weights[i]), buffer_[i].update, w);
  engine_->set_global_params(std::move(w));
  ++version_;
  flushes_counter().add();
  version_gauge().set(static_cast<double>(version_));
  vt_gauge().set(vt_);

  AsyncEvent ev;
  ev.kind = AsyncEvent::Kind::kFlush;
  ev.vt = vt_;
  ev.epoch = last_dispatch_epoch_;
  ev.version = version_;
  ev.staleness = max_stale;
  ev.buffer = 0;
  ev.aggregated = buffer_.size();
  events_.push_back(ev);

  FEDL_DEBUG << "async flush v" << version_ << " vt=" << vt_ << " |B|="
             << buffer_.size() << " max_stale=" << max_stale;
  buffer_.clear();
  deadline_armed_ = false;
}

void EventEngine::resolve_pending_evals() {
  if (pending_eval_.empty()) return;
  // Evaluate in dispatch-epoch order so the consumer's reorder buffer sees
  // a deterministic sequence even when several cohorts resolve in one step.
  std::sort(pending_eval_.begin(), pending_eval_.end());
  for (const std::size_t ci : pending_eval_) {
    Cohort& c = cohorts_[ci];
    const CohortEval ev = engine_->evaluate_cohort(c.out.selected);
    c.out.train_loss_selected = ev.train_loss_selected;
    c.out.train_loss_all = ev.train_loss_all;
    c.out.test_loss = ev.test_loss;
    c.out.test_accuracy = ev.test_accuracy;
    CohortOutcome res;
    res.outcome = std::move(c.out);
    res.dispatch_vt = c.dispatch_vt;
    res.resolve_vt = vt_;
    resolved_.push_back(std::move(res));
  }
  pending_eval_.clear();
}

std::vector<CohortOutcome> EventEngine::take_resolved() {
  std::vector<CohortOutcome> out = std::move(resolved_);
  resolved_.clear();
  return out;
}

std::vector<AsyncEvent> EventEngine::take_events() {
  std::vector<AsyncEvent> out = std::move(events_);
  events_.clear();
  return out;
}

}  // namespace fedl::fl

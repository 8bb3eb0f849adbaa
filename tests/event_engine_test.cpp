// Event-driven engine (DESIGN.md §12): virtual-clock semantics, FedBuff
// buffer accounting, dropout-as-total-loss, staleness damping, and the
// harness-level determinism contract (same-seed byte identity, equal digest
// chains across --jobs/--threads, budget never overdrawn, clean monitored
// runs fire nothing), and FedL's delayed feedback (each outcome meets its own
// epoch's decision).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.h"
#include "core/fedl_strategy.h"
#include "core/staleness.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/event_engine.h"
#include "harness/experiment.h"
#include "nn/factory.h"
#include "obs/metrics.h"
#include "parallel/scheduler.h"

namespace fedl::fl {
namespace {

// --- staleness damping -----------------------------------------------------------

TEST(Staleness, ExponentZeroIsUndampedCohortMean) {
  // All fresh, all from one cohort of 3: exactly the lockstep selected-mean
  // weights, regardless of how many of them share this flush.
  const std::vector<std::size_t> s = {0, 0, 0};
  const std::vector<std::size_t> cohorts = {3, 3, 3};
  const auto w = core::staleness_weights(s, cohorts, 0.0);
  ASSERT_EQ(w.size(), 3u);
  for (double wi : w) EXPECT_DOUBLE_EQ(wi, 1.0 / 3.0);
}

TEST(Staleness, CohortNormalizationTelescopesToLockstepMean) {
  // A cohort of 4 sliced into two K=2 flushes must apply, in total, the
  // same 1/4 weight per update the barrier version would — buffer-size
  // normalization would double it.
  const std::vector<std::size_t> s = {0, 0};
  const std::vector<std::size_t> cohorts = {4, 4};
  const auto w = core::staleness_weights(s, cohorts, 0.0);
  EXPECT_DOUBLE_EQ(w[0], 0.25);
  EXPECT_DOUBLE_EQ(w[1], 0.25);
}

TEST(Staleness, DampingDecaysPolynomially) {
  EXPECT_DOUBLE_EQ(core::staleness_damping(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(core::staleness_damping(3, 1.0), 0.25);
  EXPECT_NEAR(core::staleness_damping(3, 0.5), 0.5, 1e-12);
  // Monotone in staleness for a > 0.
  EXPECT_LT(core::staleness_damping(5, 0.5), core::staleness_damping(1, 0.5));
  const std::vector<std::size_t> s = {0, 1};
  const std::vector<std::size_t> cohorts = {2, 2};
  const auto w = core::staleness_weights(s, cohorts, 1.0);
  EXPECT_DOUBLE_EQ(w[0], 0.5);    // fresh: 1/|S|
  EXPECT_DOUBLE_EQ(w[1], 0.25);   // one version behind: damped by 1/2
}

// --- EventEngine unit semantics --------------------------------------------------

struct EventFixture {
  explicit EventFixture(std::uint64_t seed, double dropout_prob = 0.0,
                        const char* compressor = "none") {
    data = std::make_unique<data::TrainTest>(data::make_synthetic_train_test(
        data::fmnist_like_spec(300, seed), 90));
    Rng prng(seed);
    auto part = data::partition_iid(data->train, kClients, prng);
    sim::EnvironmentSpec es;
    es.num_clients = kClients;
    es.device.seed = seed + 1;
    es.device.availability_prob = 1.0;  // everyone shows up every epoch
    es.channel.seed = seed + 2;
    es.online.seed = seed + 3;
    env = std::make_unique<sim::EdgeEnvironment>(es, part);

    Rng mrng(seed + 4);
    nn::ModelSpec ms;
    ms.width_scale = 0.05;
    nn::Model model = nn::make_fmnist_cnn(ms, mrng);
    EngineConfig ec;
    ec.batch_cap = 12;
    ec.eval_cap = 48;
    ec.dane.sgd_steps = 2;
    ec.seed = seed + 5;
    ec.faults.dropout_prob = dropout_prob;
    ec.compressor = compressor;
    engine = std::make_unique<FlEngine>(&data->train, &data->test, env.get(),
                                        std::move(model), ec);
  }

  std::vector<std::size_t> first_available(std::size_t n) const {
    const auto& ctx = env->context();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n && i < ctx.available.size(); ++i)
      out.push_back(ctx.available[i].id);
    return out;
  }

  static constexpr std::size_t kClients = 8;
  std::unique_ptr<data::TrainTest> data;
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<FlEngine> engine;
};

TEST(EventEngine, FlushAtKAndVersionAdvance) {
  EventFixture f(11);
  f.env->advance_epoch();
  AsyncConfig ac;
  ac.enabled = true;
  ac.buffer_k = 2;
  EventEngine evt(f.engine.get(), f.env.get(), ac, 99);

  const auto sel = f.first_available(4);
  ASSERT_EQ(sel.size(), 4u);
  evt.dispatch(1, sel, /*iterations=*/2, /*cohort_cost=*/1.0);
  EXPECT_EQ(evt.inflight(), 4u);
  for (std::size_t id : sel) EXPECT_TRUE(evt.client_inflight(id));

  // First flush: exactly K=2 updates folded, model version 0 → 1.
  ASSERT_TRUE(evt.run_until_flush());
  EXPECT_EQ(evt.version(), 1u);
  auto events = evt.take_events();
  std::size_t flushes = 0, completes = 0;
  double last_vt = -1.0;
  for (const AsyncEvent& e : events) {
    EXPECT_GE(e.vt, last_vt);  // virtual time never runs backwards
    last_vt = e.vt;
    if (e.kind == AsyncEvent::Kind::kComplete) {
      ++completes;
      EXPECT_EQ(e.staleness, 0u);  // no flush happened before these arrived
    }
    if (e.kind == AsyncEvent::Kind::kFlush) {
      ++flushes;
      EXPECT_EQ(e.aggregated, 2u);
      EXPECT_EQ(e.buffer, 0u);
      EXPECT_EQ(e.aggregated, completes);  // flush folds what completed
    }
  }
  EXPECT_EQ(flushes, 1u);
  EXPECT_EQ(completes, 2u);

  // Each member's engagement is a chain of unit steps: 4 members × 2
  // iterations = 8 unit uploads total, so K=2 slices the run into exactly
  // 4 flushes and the model version ends at 4. Later steps trained against
  // flushed models, so at least one of them arrives stale.
  std::size_t more_completes = 0, stale_completes = 0;
  while (evt.run_until_flush()) {
    for (const AsyncEvent& e : evt.take_events())
      if (e.kind == AsyncEvent::Kind::kComplete) {
        ++more_completes;
        if (e.staleness > 0) ++stale_completes;
      }
  }
  EXPECT_EQ(more_completes, 6u);
  EXPECT_GT(stale_completes, 0u);
  EXPECT_EQ(evt.version(), 4u);
  EXPECT_TRUE(evt.drained());
  EXPECT_EQ(evt.inflight(), 0u);

  // The cohort resolves once, fully populated.
  const auto resolved = evt.take_resolved();
  ASSERT_EQ(resolved.size(), 1u);
  const EpochOutcome& out = resolved.front().outcome;
  EXPECT_EQ(out.selected, sel);
  EXPECT_EQ(out.num_dropped, 0u);
  for (std::size_t it : out.client_completed_iters) EXPECT_EQ(it, 2u);
  EXPECT_GT(out.eta_max, 0.0);
  EXPECT_GE(resolved.front().resolve_vt, resolved.front().dispatch_vt);
}

TEST(EventEngine, ShortBufferDrainFlushesRemainder) {
  EventFixture f(12);
  f.env->advance_epoch();
  AsyncConfig ac;
  ac.enabled = true;
  ac.buffer_k = 8;  // larger than the cohort: only the drain flush fires
  EventEngine evt(f.engine.get(), f.env.get(), ac, 99);
  const auto sel = f.first_available(3);
  ASSERT_EQ(sel.size(), 3u);
  evt.dispatch(1, sel, 1, 1.0);
  ASSERT_TRUE(evt.run_until_flush());
  std::size_t flushes = 0;
  for (const AsyncEvent& e : evt.take_events())
    if (e.kind == AsyncEvent::Kind::kFlush) {
      ++flushes;
      EXPECT_EQ(e.aggregated, 3u);  // nothing stranded in the buffer
    }
  EXPECT_EQ(flushes, 1u);
  EXPECT_TRUE(evt.drained());
  EXPECT_FALSE(evt.run_until_flush());  // nothing left to do
}

TEST(EventEngine, DropoutIsATotalLoss) {
  // dropout_prob = 1: every member dies mid-flight. No update is buffered,
  // no flush happens, the model version stays 0, and the cohort still
  // resolves (with everything dropped) so the learner gets its feedback.
  EventFixture f(13, /*dropout_prob=*/1.0);
  f.env->advance_epoch();
  AsyncConfig ac;
  ac.enabled = true;
  ac.buffer_k = 2;
  EventEngine evt(f.engine.get(), f.env.get(), ac, 99);
  const auto sel = f.first_available(3);
  ASSERT_EQ(sel.size(), 3u);
  const nn::ParamVec w_before = f.engine->global_params();
  evt.dispatch(1, sel, 2, 1.0);
  EXPECT_FALSE(evt.run_until_flush());  // nothing ever reaches the buffer
  EXPECT_EQ(evt.version(), 0u);
  EXPECT_EQ(f.engine->global_params(), w_before);  // model untouched

  std::size_t drops = 0;
  for (const AsyncEvent& e : evt.take_events()) {
    EXPECT_NE(e.kind, AsyncEvent::Kind::kFlush);
    EXPECT_NE(e.kind, AsyncEvent::Kind::kComplete);
    if (e.kind == AsyncEvent::Kind::kDrop) ++drops;
  }
  EXPECT_EQ(drops, 3u);

  const auto resolved = evt.take_resolved();
  ASSERT_EQ(resolved.size(), 1u);
  const EpochOutcome& out = resolved.front().outcome;
  EXPECT_EQ(out.num_dropped, 3u);
  for (std::size_t it : out.client_completed_iters) EXPECT_EQ(it, 0u);
  // A straggling failure resolves at the timeout of its nominal finish.
  for (std::size_t i = 0; i < out.client_latency_s.size(); ++i)
    EXPECT_GT(out.client_latency_s[i], 0.0);
  EXPECT_TRUE(evt.drained());
}

TEST(EventEngine, StepLatencyEqualsLockstepUnderEveryCompressor) {
  // One cohort at l = 1: both modes time a member with the same step-time
  // call, so each member's d_k matches run_epoch's bit for bit — at the
  // compressed payload too. With dropout 1 every member dies before its
  // first upload: a compressed one pays the timeout on the 64-bit header
  // alone, in both modes.
  for (const char* comp : {"none", "quant8", "topk10"})
    for (const double dropout : {0.0, 1.0}) {
      SCOPED_TRACE(std::string(comp) + (dropout > 0.0 ? " dropout" : ""));
      EventFixture f(15, dropout, comp);
      f.env->advance_epoch();
      const auto sel = f.first_available(4);
      ASSERT_EQ(sel.size(), 4u);
      const std::vector<double> lockstep =
          f.engine->run_epoch(sel, 1).client_latency_s;

      AsyncConfig ac;
      ac.enabled = true;
      ac.buffer_k = 2;
      EventEngine evt(f.engine.get(), f.env.get(), ac, 99);
      evt.dispatch(1, sel, 1, 1.0);
      while (evt.run_until_flush()) {
      }
      const auto resolved = evt.take_resolved();
      ASSERT_EQ(resolved.size(), 1u);
      const EpochOutcome& out = resolved.front().outcome;
      EXPECT_EQ(out.num_dropped, dropout > 0.0 ? sel.size() : 0u);
      EXPECT_EQ(out.client_latency_s, lockstep);

      if (dropout > 0.0 && std::string(comp) != "none") {
        const std::vector<double> header =
            f.env->step_times(sel, std::vector<double>(sel.size(), 64.0));
        const double timeout = f.engine->config().faults.timeout_multiplier;
        for (std::size_t i = 0; i < sel.size(); ++i)
          EXPECT_DOUBLE_EQ(out.client_latency_s[i], timeout * header[i]);
      }
    }
}

TEST(EventEngine, DoubleDispatchOfInflightClientIsAContractViolation) {
  EventFixture f(14);
  f.env->advance_epoch();
  AsyncConfig ac;
  ac.enabled = true;
  ac.buffer_k = 4;
  EventEngine evt(f.engine.get(), f.env.get(), ac, 99);
  const auto sel = f.first_available(2);
  ASSERT_EQ(sel.size(), 2u);
  evt.dispatch(1, sel, 1, 1.0);
  EXPECT_THROW(evt.dispatch(2, {sel[0]}, 1, 1.0), CheckError);
}

// --- harness-level contract ------------------------------------------------------

harness::ScenarioConfig small_async_scenario(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 6;
  cfg.n_min = 2;
  cfg.budget = 90.0;
  cfg.max_epochs = 8;
  cfg.train_samples = 150;
  cfg.test_samples = 60;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 8;
  cfg.eval_cap = 48;
  cfg.dane.sgd_steps = 2;
  cfg.seed = seed;
  cfg.async.enabled = true;
  cfg.async.buffer_k = 2;
  cfg.async.staleness_exponent = 0.5;
  return cfg;
}

TEST(AsyncHarness, RunCompletesAndNeverOverdrawsTheBudget) {
  harness::ScenarioConfig cfg = small_async_scenario(21);
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
  // Spend is charged at dispatch and decide() caps by remaining(): the
  // ledger can never go negative no matter how cohorts overlap.
  EXPECT_LE(res.trace.total_cost(), cfg.budget + 1e-9);
  EXPECT_FALSE(res.termination_reason.empty());
  for (const auto& r : res.trace.records) {
    EXPECT_TRUE(std::isfinite(r.test_accuracy));
    EXPECT_LE(r.cost_spent, cfg.budget + 1e-9);
  }
  // Virtual wall-clock is monotone across the (reorder-buffered) records.
  for (std::size_t i = 1; i < res.trace.records.size(); ++i)
    EXPECT_GE(res.trace.records[i].sim_time_s,
              res.trace.records[i - 1].sim_time_s);
}

TEST(AsyncHarness, SameSeedIsByteIdentical) {
  harness::ScenarioConfig cfg = small_async_scenario(22);
  cfg.record_digests = true;
  cfg.defer_trace = true;  // tracing on, buffer returned to us
  harness::Experiment exp(cfg);
  auto s1 = harness::make_strategy("fedl", cfg);
  auto s2 = harness::make_strategy("fedl", cfg);
  const auto a = exp.run(*s1);
  const auto b = exp.run(*s2);
  ASSERT_FALSE(a.epoch_digests.empty());
  EXPECT_EQ(a.epoch_digests, b.epoch_digests);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
}

TEST(AsyncHarness, DigestsEqualAcrossJobsAndThreads) {
  // The determinism headline: the event path must produce identical traces
  // and digest chains whether local training fans out or runs serial.
  harness::ScenarioConfig cfg = small_async_scenario(23);
  cfg.record_digests = true;
  cfg.defer_trace = true;
  cfg.num_threads = 0;  // draw fan-out from the scheduler's budget
  harness::Experiment exp(cfg);

  Scheduler::instance().configure(/*budget=*/4, /*jobs=*/4);
  auto s1 = harness::make_strategy("fedl", cfg);
  const auto wide = exp.run(*s1);
  Scheduler::instance().configure(/*budget=*/1, /*jobs=*/1);
  auto s2 = harness::make_strategy("fedl", cfg);
  const auto serial = exp.run(*s2);
  Scheduler::instance().configure(0, 1);  // restore defaults

  ASSERT_FALSE(wide.epoch_digests.empty());
  EXPECT_EQ(wide.epoch_digests, serial.epoch_digests);
  EXPECT_EQ(wide.trace_jsonl, serial.trace_jsonl);
}

TEST(AsyncHarness, CleanSeededRunFiresNoAnomalies) {
  harness::ScenarioConfig cfg = small_async_scenario(24);
  cfg.monitor = true;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
  EXPECT_TRUE(res.anomalies.empty())
      << res.anomalies.size() << " anomalies; first: "
      << res.anomalies.front().monitor << " — "
      << res.anomalies.front().detail;
}

TEST(AsyncHarness, EmptyEpochsRecordNoIterations) {
  // In-flight clients leave E_t thin, so some epochs select nobody. No
  // client trains in such an epoch: it records 0 iterations, as lockstep's
  // empty run_epoch does, and the round axis does not advance.
  harness::ScenarioConfig cfg = small_async_scenario(26);
  cfg.availability = 0.5;
  cfg.max_epochs = 12;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedavg", cfg);
  const auto res = exp.run(*strat);
  std::size_t empty = 0;
  for (std::size_t i = 0; i < res.trace.records.size(); ++i) {
    const fl::TraceRecord& r = res.trace.records[i];
    if (r.num_selected != 0) continue;
    ++empty;
    EXPECT_EQ(r.num_iterations, 0u) << "epoch " << r.epoch;
    const std::size_t prev_round = i == 0 ? 0 : res.trace.records[i - 1].round;
    EXPECT_EQ(r.round, prev_round) << "epoch " << r.epoch;
  }
  EXPECT_GE(empty, 1u);
}

TEST(AsyncHarness, SurvivesMidFlightDropouts) {
  harness::ScenarioConfig cfg = small_async_scenario(25);
  cfg.faults.dropout_prob = 0.3;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
  EXPECT_LE(res.trace.total_cost(), cfg.budget + 1e-9);
}

// The number after "key": in one JSONL record.
double json_number(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << line;
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + tag.size(), nullptr);
}

std::uint64_t timeout_flushes() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find("fl.async.timeout_flushes");
  return it == snap.counters.end() ? 0 : it->second;
}

// The deadline flush (flush_timeout_s). K is above any cohort's size, so
// the buffer never fills and every flush is a deadline flush: it fires the
// timeout after the update that opened its buffer (to the trace's ten
// printed digits). The budget holds and the digests do not depend on the
// thread budget.
TEST(AsyncHarness, DeadlineFlushesFireTheTimeoutAfterTheBufferOpens) {
  harness::ScenarioConfig cfg = small_async_scenario(27);
  cfg.async.buffer_k = 64;
  cfg.async.flush_timeout_s = 0.5;
  cfg.record_digests = true;
  cfg.defer_trace = true;
  cfg.num_threads = 0;  // draw fan-out from the scheduler's budget
  harness::Experiment exp(cfg);

  const std::uint64_t timeouts_before = timeout_flushes();
  Scheduler::instance().configure(/*budget=*/4, /*jobs=*/1);
  auto s1 = harness::make_strategy("fedl", cfg);
  const auto wide = exp.run(*s1);
  const std::uint64_t timeouts = timeout_flushes() - timeouts_before;
  Scheduler::instance().configure(/*budget=*/1, /*jobs=*/1);
  auto s2 = harness::make_strategy("fedl", cfg);
  const auto serial = exp.run(*s2);
  Scheduler::instance().configure(0, 1);  // restore defaults

  double opened_vt = -1.0;
  std::uint64_t flushes = 0;
  std::istringstream lines(wide.trace_jsonl);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"event\"") == std::string::npos) continue;
    const double vt = json_number(line, "vt");
    if (line.find("\"kind\":\"complete\"") != std::string::npos &&
        json_number(line, "buffer") == 1.0)
      opened_vt = vt;
    if (line.find("\"kind\":\"flush\"") == std::string::npos) continue;
    ASSERT_GE(opened_vt, 0.0) << "a flush with no update buffered: " << line;
    EXPECT_LT(json_number(line, "aggregated"),
              static_cast<double>(cfg.async.buffer_k));
    EXPECT_NEAR(vt, opened_vt + cfg.async.flush_timeout_s, 1e-9 * vt)
        << line;
    opened_vt = -1.0;
    ++flushes;
  }
  EXPECT_GE(flushes, 2u);
  EXPECT_EQ(timeouts, flushes);

  EXPECT_LE(wide.trace.total_cost(), cfg.budget + 1e-9);
  for (const auto& r : wide.trace.records)
    EXPECT_LE(r.cost_spent, cfg.budget + 1e-9);
  ASSERT_FALSE(wide.epoch_digests.empty());
  EXPECT_EQ(wide.epoch_digests, serial.epoch_digests);
  EXPECT_EQ(wide.trace_jsonl, serial.trace_jsonl);
}

// --- delayed feedback ------------------------------------------------------------

// Epoch `epoch` offering clients [first, first + count) at unit rent.
sim::EpochContext feedback_ctx(std::size_t epoch, std::size_t first,
                               std::size_t count) {
  sim::EpochContext ctx;
  ctx.epoch = epoch;
  for (std::size_t id = first; id < first + count; ++id) {
    sim::ClientObservation o;
    o.id = id;
    o.cost = 1.0;
    o.data_size = 20;
    o.tau_loc = 0.1 * static_cast<double>(id + 1);
    o.tau_cm_est = 0.05;
    ctx.available.push_back(o);
  }
  return ctx;
}

// The outcome of `dec` with every selected client finishing its iterations
// at local accuracy `eta`.
EpochOutcome feedback_outcome(const core::Decision& dec, double eta) {
  EpochOutcome out;
  out.selected = dec.selected;
  out.num_iterations = dec.num_iterations;
  out.client_eta.assign(dec.selected.size(), eta);
  out.client_loss_reduction.assign(dec.selected.size(), 0.05);
  out.client_completed_iters.assign(dec.selected.size(), dec.num_iterations);
  out.train_loss_all = 1.0;
  return out;
}

// Expects step (9) from μ = 0 for each candidate of the observed decision
// f1: μ^k = min([δ·h^k]+, μ_max) with h^k = η x̃_k ρ − ρ + 1, η realized
// (`eta`) for a selected client, else the prior.
void expect_step_nine(const core::FedLStrategy& s,
                      const core::FractionalDecision& f1,
                      const core::Decision& d1, double eta_selected,
                      const core::LearnerConfig& cfg) {
  bool moved = false;
  for (std::size_t i = 0; i < f1.ids.size(); ++i) {
    const bool selected = std::count(d1.selected.begin(), d1.selected.end(),
                                     f1.ids[i]) > 0;
    const double eta = selected ? eta_selected : core::kInitEta;
    const double h = eta * f1.x[i] * f1.rho - f1.rho + 1.0;
    const double mu = std::min(std::max(0.0, cfg.delta * h), cfg.mu_max);
    EXPECT_DOUBLE_EQ(s.learner().mu_k(f1.ids[i]), mu) << "client " << f1.ids[i];
    moved = moved || mu > 0.0;
  }
  EXPECT_TRUE(moved) << "no first-epoch dual moved; the check is vacuous";
}

// Event mode resolves a cohort after newer epochs were decided (DESIGN.md
// §12.3): its outcome must meet its own epoch's fractional decision. Two
// epochs with disjoint candidates are decided, then the first is observed.
TEST(FedLFeedback, DelayedOutcomeMeetsItsOwnEpochsDecision) {
  core::FedLConfig cfg;
  cfg.learner.n_min = 2;
  core::FedLStrategy s(6, cfg);
  core::BudgetLedger budget(1e6);
  const sim::EpochContext ctx1 = feedback_ctx(1, 0, 3);
  const core::Decision d1 = s.decide(ctx1, budget);
  const core::FractionalDecision f1 = s.last_fraction();
  s.decide(feedback_ctx(2, 3, 3), budget);

  constexpr double kEta = 0.9;
  s.observe(ctx1, d1, feedback_outcome(d1, kEta));
  expect_step_nine(s, f1, d1, kEta, cfg.learner);
  for (std::size_t id = 3; id < 6; ++id)
    EXPECT_EQ(s.learner().mu_k(id), 0.0) << "second-epoch client " << id;
}

// The decision carries its candidates' record slots to observe(). Between
// decide(1) and observe(1), 300 fresh candidates grow the pool from 3 to
// 303 records: the index rehashes from 64 to 512 cells (three times at
// load 0.7) and the record arena reallocates. The slots must still reach
// epoch 1's records, so a pointer or reference held across that growth
// fails here.
TEST(FedLFeedback, DelayedOutcomeSurvivesPoolGrowth) {
  core::FedLConfig cfg;
  cfg.learner.n_min = 2;
  constexpr std::size_t kFresh = 300;
  core::FedLStrategy s(3 + kFresh, cfg);
  core::BudgetLedger budget(1e6);
  const sim::EpochContext ctx1 = feedback_ctx(1, 0, 3);
  const core::Decision d1 = s.decide(ctx1, budget);
  const core::FractionalDecision f1 = s.last_fraction();
  ASSERT_EQ(s.learner().active_clients(), 3u);
  const std::size_t bytes1 = s.learner().resident_bytes();
  s.decide(feedback_ctx(2, 3, kFresh), budget);
  ASSERT_EQ(s.learner().active_clients(), 3 + kFresh);
  ASSERT_GT(s.learner().resident_bytes(), 4 * bytes1);

  constexpr double kEta = 0.9;
  s.observe(ctx1, d1, feedback_outcome(d1, kEta));
  expect_step_nine(s, f1, d1, kEta, cfg.learner);
  for (std::size_t id = 3; id < 3 + kFresh; ++id)
    ASSERT_EQ(s.learner().mu_k(id), 0.0) << "second-epoch client " << id;
}

TEST(FedLFeedback, ObserveOfAnUndecidedEpochThrows) {
  core::FedLStrategy s(3, core::FedLConfig{});
  EXPECT_THROW(s.observe(feedback_ctx(7, 0, 3), core::Decision{},
                         EpochOutcome{}),
               CheckError);
  // observe() consumes the decision: its epoch cannot be observed twice.
  core::BudgetLedger budget(1e6);
  const sim::EpochContext ctx = feedback_ctx(1, 0, 3);
  const core::Decision d = s.decide(ctx, budget);
  const EpochOutcome out = feedback_outcome(d, 0.5);
  s.observe(ctx, d, out);
  EXPECT_THROW(s.observe(ctx, d, out), CheckError);
}

}  // namespace
}  // namespace fedl::fl

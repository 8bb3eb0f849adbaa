// Benchmark driver: runs one seeded workload in this process through the
// public APIs only (harness::Experiment::run, sim::EdgeEnvironment,
// core::FedLStrategy) and writes what it saw as one JSON document. run.py
// starts one driver process per run, so the process-wide singletons
// (MetricsRegistry, Scheduler, Profiler) and the peak RSS belong to that run
// alone.
//
//   perfbench_driver --workload lockstep_fmnist --seed 1 --threads 4
//       --trace 0 --out result.json
//
// The driver measures and records; run.py checks the records and turns
// them into metrics. With --trace 1 the program's own profiler scopes and
// the driver's spans around each public call are kept in memory and written
// out at the end (--profile-out and the "spans" array).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/fedl_strategy.h"
#include "harness/experiment.h"
#include "obs/digest.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"
#include "sim/environment.h"
#include "tensor/gemm.h"
#include "tensor/simd_dispatch.h"

namespace fedl::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 4;
  std::size_t epochs = 0;      // 0 = the workload's own horizon
  bool setup_only = false;     // time one cold set-up, then exit
  bool trace = false;
  bool parity = false;         // subclass vs make_strategy digest check
  std::size_t ceiling_reps = 0;
  std::string out;
  std::string profile_out;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench_driver: " << msg << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || v[0] == '-')
    usage_error(flag + " wants a non-negative integer, got '" + v + "'");
  return x;
}

// Every flag takes exactly one value; an unknown or repeated flag is an
// error, so a misspelt option can never silently fall back to a default.
Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    if (!seen.emplace(flag, argv[i + 1]).second)
      usage_error(flag + " given twice");
  }
  for (const auto& [flag, v] : seen) {
    if (flag == "--workload")
      o.workload = v;
    else if (flag == "--seed")
      o.seed = parse_uint(flag, v);
    else if (flag == "--threads")
      o.threads = parse_uint(flag, v);
    else if (flag == "--epochs")
      o.epochs = parse_uint(flag, v);
    else if (flag == "--setup-only")
      o.setup_only = parse_uint(flag, v) != 0;
    else if (flag == "--trace")
      o.trace = parse_uint(flag, v) != 0;
    else if (flag == "--parity")
      o.parity = parse_uint(flag, v) != 0;
    else if (flag == "--ceiling-reps")
      o.ceiling_reps = parse_uint(flag, v);
    else if (flag == "--out")
      o.out = v;
    else if (flag == "--profile-out")
      o.profile_out = v;
    else
      usage_error("unknown flag " + flag);
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (o.out.empty()) usage_error("--out is required");
  if (o.threads == 0) usage_error("--threads must be at least 1");
  return o;
}

// ---------------------------------------------------------------------------
// Workloads

// FedL as harness::make_strategy("fedl", cfg) configures it.
core::FedLConfig fedl_config(const harness::ScenarioConfig& cfg) {
  core::FedLConfig fc;
  fc.learner.n_min = cfg.n_min;
  fc.learner.theta = cfg.theta;
  fc.learner.selection_width = cfg.selection_width;
  fc.learner.width_explore = cfg.width_explore;
  fc.l_max = std::max<std::size_t>(cfg.fixed_iterations * 2, 4);
  fc.learner.rho_max = static_cast<double>(fc.l_max);
  if (cfg.async.enabled) fc.fraction_history = 64;
  fc.seed = cfg.seed * 61 + 37;
  return fc;
}

// The fig6 scenario defaults of bench/fig_common.h (FMNIST-like task).
harness::ScenarioConfig fig6_fmnist(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.task = harness::Task::kFmnistLike;
  cfg.iid = true;
  cfg.num_clients = 12;
  cfg.n_min = 4;
  cfg.budget = 900.0;
  cfg.max_epochs = 60;
  cfg.train_samples = 600;
  cfg.test_samples = 250;
  cfg.width_scale = 0.08;
  cfg.batch_cap = 24;
  cfg.eval_cap = 160;
  cfg.theta = 0.5;
  cfg.selection_width = 0;
  cfg.dane.sgd_steps = 3;
  cfg.num_threads = 0;  // fan-out drawn from the scheduler's budget
  cfg.seed = seed;
  cfg.monitor = true;
  cfg.record_digests = true;
  return cfg;
}

std::optional<harness::ScenarioConfig> training_scenario(
    const std::string& workload, std::uint64_t seed) {
  harness::ScenarioConfig cfg = fig6_fmnist(seed);
  if (workload == "lockstep_fmnist") {
    // The quickstart's population and model on the fig6 scenario.
    cfg.num_clients = 20;
    cfg.train_samples = 1200;
    cfg.width_scale = 0.15;
    return cfg;
  }
  if (workload == "event_fmnist_quant8") {
    cfg.async.enabled = true;
    cfg.async.buffer_k = 4;
    cfg.async.staleness_exponent = 0.5;
    cfg.async.flush_timeout_s = 0.0;
    cfg.compressor = "quant8";
    cfg.faults.dropout_prob = 0.1;
    cfg.max_epochs = 400;  // the budget binds first
    return cfg;
  }
  return std::nullopt;
}

// select_1m: a lazy million-client roster with |E_t| near 1000 (the
// fig8_scale_sweep construction), FedL with the dense solve, and synthetic
// epoch outcomes.
constexpr std::size_t kSelectClients = 1000000;
constexpr std::size_t kSelectAvailable = 1000;
constexpr std::size_t kSelectNMin = 8;
constexpr std::size_t kSelectEpochs = 1500;
constexpr double kSelectBudget = 1e15;  // the pacing cap governs, not C

// ---------------------------------------------------------------------------
// Recording

// A span of the driver's own, around one public call. Spans of one epoch
// share the epoch's root id as parent.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  double start = 0.0;  // seconds since the run started
  double end = 0.0;
};

struct EpochRecord {
  std::size_t epoch = 0;
  double decide_start = 0.0;  // seconds since the run started
  double decide_s = 0.0;
  double advance_s = 0.0;  // select_1m only (advance_epoch is ours there)
  double observe_s = 0.0;
  std::size_t available = 0;
  std::size_t selected = 0;
  double spent = 0.0;
  double cohort_cost = 0.0;
  bool subset_ok = true;
  bool observed = false;
  double train_loss_all = 0.0;
  double train_loss_selected = 0.0;
  double test_loss = 0.0;
  double test_accuracy = 0.0;
  std::size_t client_iters = 0;
};

class Recorder {
 public:
  explicit Recorder(bool spans) : spans_on_(spans) {}

  void start_run() { t0_ = Clock::now(); }
  double now() const { return seconds_between(t0_, Clock::now()); }

  // Opens the next epoch's root span, closing the previous one.
  void open_epoch(double at) {
    close_epoch(at);
    root_ = ++next_id_;
    root_start_ = at;
  }
  void close_epoch(double at) {
    close_gap(at);
    if (root_ != 0) add_span(root_, 0, "epoch", root_start_, at);
    root_ = 0;
  }
  void child(const char* name, double start, double end) {
    add_span(++next_id_, root_, name, start, end);
  }
  // The engine gap runs from the end of decide() to the next observe() (or
  // the next epoch): the training work the harness does with the decision.
  void open_gap(double at) { gap_start_ = at; }
  void close_gap(double at) {
    if (gap_start_ >= 0.0) child("engine", gap_start_, at);
    gap_start_ = -1.0;
  }

  EpochRecord& record(std::size_t epoch) {
    auto it = index_.find(epoch);
    if (it != index_.end()) return records_[it->second];
    index_.emplace(epoch, records_.size());
    records_.push_back({});
    records_.back().epoch = epoch;
    return records_.back();
  }
  const std::vector<EpochRecord>& records() const { return records_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void add_span(std::uint64_t id, std::uint64_t parent, const char* name,
                double start, double end) {
    if (spans_on_) spans_.push_back({id, parent, name, start, end});
  }

  bool spans_on_;
  Clock::time_point t0_ = Clock::now();
  std::uint64_t next_id_ = 0;
  std::uint64_t root_ = 0;
  double root_start_ = 0.0;
  double gap_start_ = -1.0;
  std::vector<Span> spans_;
  std::vector<EpochRecord> records_;
  std::map<std::size_t, std::size_t> index_;
};

// CPU seconds used so far by the whole process (all threads).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Thrown from the first decide() of a set-up probe: set-up is over.
struct SetupReached {};

// FedL with decide()/observe() timed. A subclass, not a wrapper: the harness
// reaches the learner through dynamic_cast<core::FedLStrategy*>, and a
// wrapper would quietly turn FedL into a baseline run.
class TimedFedL : public core::FedLStrategy {
 public:
  TimedFedL(std::size_t num_clients, core::FedLConfig cfg, Recorder* rec,
            bool probe)
      : core::FedLStrategy(num_clients, cfg), rec_(rec), probe_(probe) {}

  core::Decision decide(const sim::EpochContext& ctx,
                        const core::BudgetLedger& budget) override {
    if (probe_) throw SetupReached{};
    const double start = rec_->now();
    if (!first_decide_) {
      first_decide_ = start;
      first_cpu_ = cpu_seconds();
    }
    rec_->open_epoch(advance_start_ >= 0.0 ? advance_start_ : start);
    if (advance_start_ >= 0.0) rec_->child("advance", advance_start_, start);
    core::Decision d = core::FedLStrategy::decide(ctx, budget);
    const double end = rec_->now();
    rec_->child("decide", start, end);
    rec_->open_gap(end);

    EpochRecord& r = rec_->record(ctx.epoch);
    r.decide_start = start;
    r.decide_s = end - start;
    r.advance_s = advance_start_ >= 0.0 ? start - advance_start_ : 0.0;
    r.available = ctx.available.size();
    r.selected = d.selected.size();
    r.spent = budget.spent();
    for (std::size_t id : d.selected) {
      const sim::ClientObservation* o = ctx.find(id);
      if (o == nullptr)
        r.subset_ok = false;
      else
        r.cohort_cost += o->cost;
    }
    advance_start_ = -1.0;
    return d;
  }

  void observe(const sim::EpochContext& ctx, const core::Decision& decision,
               const fl::EpochOutcome& out) override {
    const double start = rec_->now();
    rec_->close_gap(start);
    core::FedLStrategy::observe(ctx, decision, out);
    const double end = rec_->now();
    rec_->child("observe", start, end);

    EpochRecord& r = rec_->record(ctx.epoch);
    r.observe_s += end - start;
    r.observed = true;
    r.train_loss_all = out.train_loss_all;
    r.train_loss_selected = out.train_loss_selected;
    r.test_loss = out.test_loss;
    r.test_accuracy = out.test_accuracy;
    for (std::size_t it : out.client_completed_iters) r.client_iters += it;
  }

  // select_1m drives advance_epoch() itself; the span goes under the next
  // epoch's root.
  void note_advance_start(double at) { advance_start_ = at; }
  double first_decide() const { return first_decide_.value_or(0.0); }
  // Process CPU seconds when the first decide() started (set-up is over).
  double first_cpu() const { return first_cpu_; }

 private:
  Recorder* rec_;
  bool probe_;
  std::optional<double> first_decide_;
  double first_cpu_ = 0.0;
  double advance_start_ = -1.0;
};

// ---------------------------------------------------------------------------
// Output

struct RunOutput {
  std::vector<double> setup_s;
  double run_s = 0.0;
  std::size_t n_min = 0;
  double budget = 0.0;
  std::string termination_reason;
  std::vector<std::uint64_t> digests;
  std::vector<obs::AnomalyRecord> anomalies;
  std::vector<fl::TraceRecord> trace;
  std::size_t active_clients = 0;
  std::size_t resident_bytes = 0;
  double cpu_s = 0.0;  // process CPU time over the run (after set-up)
  double ceiling_gflops = 0.0;
};

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

bool is_hard(const obs::AnomalyRecord& a) {
  // The budget_pacing monitor reports two things: a soft pacing-cap
  // overshoot and the hard overdraw of C (constraint 3a).
  return a.monitor == "budget_pacing" && a.observed > a.limit &&
         a.detail.find("overdraws budget") != std::string::npos;
}

void write_metrics_delta(obs::JsonWriter& w, const obs::MetricsSnapshot& a,
                         const obs::MetricsSnapshot& b) {
  w.key("counters").begin_object();
  for (const auto& [name, v] : b.counters) {
    const auto it = a.counters.find(name);
    w.key(name).value(v - (it == a.counters.end() ? 0 : it->second));
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : b.gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : b.histograms) {
    const auto it = a.histograms.find(name);
    const std::uint64_t total0 =
        it == a.histograms.end() ? 0 : it->second.total;
    const double sum0 = it == a.histograms.end() ? 0.0 : it->second.sum;
    w.key(name).begin_object();
    w.key("total").value(h.total - total0);
    w.key("sum").value(h.sum - sum0);
    w.end_object();
  }
  w.end_object();
}

void write_output(const Options& opt, const RunOutput& run,
                  const Recorder& rec, const obs::MetricsSnapshot& before,
                  const obs::MetricsSnapshot& after) {
  std::ofstream f(opt.out, std::ios::trunc);
  if (!f) usage_error("cannot write " + opt.out);
  obs::JsonWriter w(f);
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("seed").value(opt.seed);
  w.key("threads").value(static_cast<std::uint64_t>(opt.threads));
  w.key("nproc").value(
      static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
#if defined(FEDL_BUILD_TYPE)
  w.key("build_type").value(FEDL_BUILD_TYPE);
#else
  w.key("build_type").value("unknown");
#endif
  w.key("kernel_tier").value(static_cast<int>(active_gemm_kernel()));
  w.key("kernel_name").value(gemm_kernel_name(active_gemm_kernel()));
  w.key("n_min").value(static_cast<std::uint64_t>(run.n_min));
  w.key("budget").value(run.budget);
  w.key("setup_s").begin_array();
  for (double s : run.setup_s) w.value(s);
  w.end_array();
  w.key("run_s").value(run.run_s);
  w.key("cpu_s").value(run.cpu_s);
  w.key("peak_rss_kb").value(static_cast<std::int64_t>(peak_rss_kb()));
  w.key("termination_reason").value(run.termination_reason);
  w.key("active_clients")
      .value(static_cast<std::uint64_t>(run.active_clients));
  w.key("resident_bytes")
      .value(static_cast<std::uint64_t>(run.resident_bytes));
  w.key("ceiling_gflops").value(run.ceiling_gflops);
  w.key("digests").begin_array();
  for (std::uint64_t d : run.digests) w.value(obs::digest_hex(d));
  w.end_array();
  w.key("anomalies").begin_array();
  for (const auto& a : run.anomalies) {
    w.begin_object();
    w.key("monitor").value(a.monitor);
    w.key("epoch").value(a.epoch);
    w.key("hard").value(is_hard(a));
    w.end_object();
  }
  w.end_array();
  // Trace records: [epoch, simulated seconds, test accuracy, spent].
  w.key("trace").begin_array();
  for (const auto& r : run.trace) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(r.epoch));
    w.value(r.sim_time_s);
    w.value(r.test_accuracy);
    w.value(r.cost_spent);
    w.end_array();
  }
  w.end_array();
  w.key("epochs").begin_array();
  for (const EpochRecord& r : rec.records()) {
    w.begin_object();
    w.key("epoch").value(static_cast<std::uint64_t>(r.epoch));
    w.key("decide_start").value(r.decide_start);
    w.key("decide_s").value(r.decide_s);
    w.key("advance_s").value(r.advance_s);
    w.key("observe_s").value(r.observe_s);
    w.key("available").value(static_cast<std::uint64_t>(r.available));
    w.key("selected").value(static_cast<std::uint64_t>(r.selected));
    w.key("spent").value(r.spent);
    w.key("cohort_cost").value(r.cohort_cost);
    w.key("subset_ok").value(r.subset_ok);
    w.key("observed").value(r.observed);
    w.key("train_loss_all").value(r.train_loss_all);
    w.key("train_loss_selected").value(r.train_loss_selected);
    w.key("test_loss").value(r.test_loss);
    w.key("test_accuracy").value(r.test_accuracy);
    w.key("client_iters").value(static_cast<std::uint64_t>(r.client_iters));
    w.end_object();
  }
  w.end_array();
  write_metrics_delta(w, before, after);
  w.key("spans").begin_array();
  for (const Span& s : rec.spans()) {
    w.begin_array();
    w.value(s.id);
    w.value(s.parent);
    w.value(s.name);
    w.value(s.start);
    w.value(s.end);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  f << "\n";
  if (!f) usage_error("short write on " + opt.out);
}

// ---------------------------------------------------------------------------
// Runs

void begin_trace(const Options& opt) {
  if (!opt.trace) return;
  obs::Profiler::global().clear();
  obs::Profiler::global().set_enabled(true);
}

void end_trace(const Options& opt) {
  if (!opt.trace) return;
  obs::Profiler::global().set_enabled(false);
  if (!opt.profile_out.empty())
    obs::Profiler::global().write_chrome_trace_file(opt.profile_out);
}

RunOutput run_training(const Options& opt, harness::ScenarioConfig cfg,
                       Recorder& rec, obs::MetricsSnapshot& before) {
  if (opt.epochs > 0) cfg.max_epochs = opt.epochs;
  RunOutput out;
  out.n_min = cfg.n_min;
  out.budget = cfg.budget;

  // Set-up probe: Experiment construction plus run() entry up to the first
  // decide(), where the probe strategy stops the run.
  if (opt.setup_only) {
    Recorder probe_rec(false);
    probe_rec.start_run();
    harness::Experiment exp(cfg);
    TimedFedL probe(cfg.num_clients, fedl_config(cfg), &probe_rec, true);
    try {
      exp.run(probe);
    } catch (const SetupReached&) {
    }
    out.setup_s.push_back(probe_rec.now());
    return out;
  }

  before = obs::MetricsRegistry::global().snapshot();
  begin_trace(opt);
  rec.start_run();
  harness::Experiment exp(cfg);
  TimedFedL strategy(cfg.num_clients, fedl_config(cfg), &rec, false);
  harness::RunResult result = exp.run(strategy);
  const double end = rec.now();
  rec.close_epoch(end);
  end_trace(opt);
  out.cpu_s = cpu_seconds() - strategy.first_cpu();
  out.setup_s.push_back(strategy.first_decide());
  out.run_s = end - strategy.first_decide();
  out.termination_reason = result.termination_reason;
  out.digests = result.epoch_digests;
  out.anomalies = result.anomalies;
  out.trace = result.trace.records;
  out.active_clients = strategy.learner().active_clients();
  out.resident_bytes = strategy.learner().resident_bytes();
  return out;
}

RunOutput run_select(const Options& opt, Recorder& rec,
                     obs::MetricsSnapshot& before) {
  const std::size_t epochs = opt.epochs > 0 ? opt.epochs : kSelectEpochs;
  RunOutput out;
  out.n_min = kSelectNMin;
  out.budget = kSelectBudget;

  sim::EnvironmentSpec spec;
  spec.lazy_sampling = true;
  spec.num_clients = kSelectClients;
  spec.expected_participants = kSelectNMin;
  spec.device.availability_prob = static_cast<double>(kSelectAvailable) /
                                  static_cast<double>(kSelectClients);
  spec.device.seed = opt.seed * 31 + 7;
  core::FedLConfig fc;
  fc.learner.n_min = kSelectNMin;
  fc.learner.selection_width = 0;
  fc.seed = opt.seed * 61 + 37;

  // Set-up: building the environment and the strategy.
  if (opt.setup_only) {
    Recorder probe_rec(false);
    probe_rec.start_run();
    sim::EdgeEnvironment env(spec);
    TimedFedL probe(kSelectClients, fc, &probe_rec, true);
    out.setup_s.push_back(probe_rec.now());
    return out;
  }

  before = obs::MetricsRegistry::global().snapshot();
  begin_trace(opt);
  rec.start_run();
  sim::EdgeEnvironment env(spec);
  TimedFedL strategy(kSelectClients, fc, &rec, false);
  const double setup = rec.now();
  core::BudgetLedger ledger(kSelectBudget);
  obs::DigestChain digest;
  for (std::size_t t = 0; t < epochs; ++t) {
    strategy.note_advance_start(rec.now());
    const sim::EpochContext& ctx = env.advance_epoch();
    const core::Decision dec = strategy.decide(ctx, ledger);

    // Synthetic realized epoch (as fig8_scale_sweep): every selected client
    // completes, with mild per-client variation so the estimates move.
    fl::EpochOutcome o;
    o.epoch = ctx.epoch;
    o.selected = dec.selected;
    o.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
    for (std::size_t i = 0; i < dec.selected.size(); ++i) {
      const sim::ClientObservation* c = ctx.find(dec.selected[i]);
      o.cost += c != nullptr ? c->cost : 0.0;
      o.client_eta.push_back(0.4 + 0.2 * static_cast<double>(i % 3));
      o.client_loss_reduction.push_back(0.02 +
                                        0.01 * static_cast<double>(i % 5));
      o.client_completed_iters.push_back(o.num_iterations);
    }
    o.train_loss_all = 2.303 / (1.0 + 0.05 * static_cast<double>(t));
    o.train_loss_selected = o.train_loss_all;
    o.test_loss = o.train_loss_all;
    ledger.charge(o.cost);
    strategy.observe(ctx, dec, o);

    // Determinism digest over the decision: epoch, selection, iterations.
    digest.update(&o.epoch, sizeof o.epoch);
    if (!dec.selected.empty())
      digest.update(dec.selected.data(),
                    dec.selected.size() * sizeof(dec.selected[0]));
    digest.update(&dec.num_iterations, sizeof dec.num_iterations);
    out.digests.push_back(digest.value());
  }
  const double end = rec.now();
  rec.close_epoch(end);
  end_trace(opt);
  out.cpu_s = cpu_seconds() - strategy.first_cpu();
  out.setup_s.push_back(setup);
  out.run_s = end - strategy.first_decide();
  out.termination_reason = "max_epochs";
  out.active_clients = strategy.learner().active_clients();
  out.resident_bytes = strategy.learner().resident_bytes();
  return out;
}

// Best single-thread GFLOP/s of a 256³ GEMM: the kernel ceiling the
// training workloads' achieved rate is compared with.
double gemm_ceiling_gflops(std::size_t reps) {
  Scheduler::instance().configure(1, 1);
  constexpr std::size_t n = 256;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 7) * 0.25f - 0.5f;
    b[i] = static_cast<float>(i % 5) * 0.5f - 1.0f;
  }
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 8; ++i)
      gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, 8.0 * 2.0 * n * n * n / s * 1e-9);
  }
  return best;
}

// The timed subclass must drive exactly the computation make_strategy's
// FedL drives: equal digest chains over a short horizon.
int parity_check(const Options& opt, harness::ScenarioConfig cfg) {
  cfg.max_epochs = opt.epochs > 0 ? opt.epochs : 4;
  harness::Experiment exp(cfg);
  auto plain = harness::make_strategy("fedl", cfg);
  const auto a = exp.run(*plain).epoch_digests;
  Recorder rec(false);
  rec.start_run();
  TimedFedL timed(cfg.num_clients, fedl_config(cfg), &rec, false);
  const auto b = exp.run(timed).epoch_digests;
  std::cout << "parity " << opt.workload << ": " << a.size() << " vs "
            << b.size() << " digests, "
            << (a == b && !a.empty() ? "equal" : "DIFFERENT") << "\n";
  return a == b && !a.empty() ? 0 : 1;
}

int driver_main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  set_log_level(LogLevel::kWarn);
  Scheduler::instance().configure(opt.threads, 1);

  const auto scenario = training_scenario(opt.workload, opt.seed);
  if (!scenario && opt.workload != "select_1m")
    usage_error("unknown workload " + opt.workload);
  if (opt.parity) {
    if (!scenario) usage_error("--parity applies to training workloads");
    return parity_check(opt, *scenario);
  }

  Recorder rec(opt.trace);
  obs::MetricsSnapshot before;
  RunOutput out = scenario ? run_training(opt, *scenario, rec, before)
                           : run_select(opt, rec, before);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  if (opt.ceiling_reps > 0)
    out.ceiling_gflops = gemm_ceiling_gflops(opt.ceiling_reps);
  write_output(opt, out, rec, before, after);
  return 0;
}

}  // namespace
}  // namespace fedl::perfbench

int main(int argc, char** argv) {
  try {
    return fedl::perfbench::driver_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver failed: " << e.what() << "\n";
    return 1;
  }
}

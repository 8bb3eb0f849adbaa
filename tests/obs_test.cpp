// Tests for the observability layer: metrics registry (sharded counters,
// gauges, histogram bucket edges, concurrent merges), the scoped profiler's
// Chrome-trace export, the JSONL decision-trace schema of one seeded epoch,
// and the harness-side metrics reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"

namespace fedl {
namespace {

using obs::MetricsRegistry;

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Counters are per-thread sharded with relaxed atomics; a fan-out of
// increments from pool workers must still merge to the exact total.
TEST(Metrics, ConcurrentIncrementsMergeExactly) {
  static const obs::Counter counter("test.concurrent_adds");
  const std::uint64_t before =
      counter_value(MetricsRegistry::global().snapshot(),
                    "test.concurrent_adds");

  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 1000;
  ThreadPool pool(8);
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(pool.submit([] {
      for (std::size_t i = 0; i < kAddsPerTask; ++i) counter.add();
    }));
  }
  for (auto& f : futures) f.get();

  const std::uint64_t after =
      counter_value(MetricsRegistry::global().snapshot(),
                    "test.concurrent_adds");
  EXPECT_EQ(after - before, kTasks * kAddsPerTask);
}

// Shards are returned to a free list when their thread exits; counts
// accumulated by dead threads must survive into later snapshots.
TEST(Metrics, CountsSurviveThreadExit) {
  static const obs::Counter counter("test.thread_exit_adds");
  const std::uint64_t before = counter_value(
      MetricsRegistry::global().snapshot(), "test.thread_exit_adds");
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(2);
    pool.submit([] { counter.add(10); }).get();
  }  // pools (and their shard-owning workers) destroyed here
  const std::uint64_t after = counter_value(
      MetricsRegistry::global().snapshot(), "test.thread_exit_adds");
  EXPECT_EQ(after - before, 30u);
}

TEST(Metrics, GaugeKeepsLatestValue) {
  static const obs::Gauge gauge("test.gauge");
  gauge.set(1.5);
  gauge.set(-2.25);
  const auto snap = MetricsRegistry::global().snapshot();
  ASSERT_EQ(snap.gauges.count("test.gauge"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge"), -2.25);
}

// Buckets have "≤ bound" semantics: a value exactly on a bound lands in that
// bucket, values above the last bound land in the overflow slot.
TEST(Metrics, HistogramBucketEdges) {
  static const obs::Histogram hist("test.hist_edges", {1.0, 2.0, 4.0});
  auto find = [] {
    return MetricsRegistry::global().snapshot().histograms.at(
        "test.hist_edges");
  };
  const auto before = find();

  hist.observe(0.5);   // <= 1
  hist.observe(1.0);   // exactly on the first bound -> first bucket
  hist.observe(1.01);  // <= 2
  hist.observe(2.0);   // exactly on the second bound -> second bucket
  hist.observe(4.0);   // exactly on the last bound -> last finite bucket
  hist.observe(4.01);  // overflow
  hist.observe(100.0); // overflow

  const auto after = find();
  ASSERT_EQ(after.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  ASSERT_EQ(after.counts.size(), 4u);
  EXPECT_EQ(after.counts[0] - before.counts[0], 2u);
  EXPECT_EQ(after.counts[1] - before.counts[1], 2u);
  EXPECT_EQ(after.counts[2] - before.counts[2], 1u);
  EXPECT_EQ(after.counts[3] - before.counts[3], 2u);
  EXPECT_EQ(after.total - before.total, 7u);
  EXPECT_DOUBLE_EQ(after.sum - before.sum, 112.52);
}

// Observation reads a histogram's definition without the registry mutex,
// while a registration on another thread writes the next definition under
// it. The two must touch no common memory, not even a container's size
// (the tsan leg checks this; sanitizer builds bounds-check operator[]).
TEST(Metrics, HistogramRegistrationDoesNotRaceObservation) {
  static const obs::Histogram hist("test.hist_observed", {1.0, 2.0});
  auto total = [] {
    return MetricsRegistry::global()
        .snapshot()
        .histograms.at("test.hist_observed")
        .total;
  };
  const std::uint64_t before = total();

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::uint64_t observed = 0;
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      hist.observe(1.5);
      ++observed;
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (int i = 0; i < 16; ++i) {
    const obs::Histogram fresh("test.hist_registered_" + std::to_string(i),
                               {1.0});
  }
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(total() - before, observed);
}

TEST(Metrics, RegistrationIsIdempotentAndHandlesAreCheap) {
  const obs::Counter a("test.same_name");
  const obs::Counter b("test.same_name");  // same id, no duplicate metric
  a.add(2);
  b.add(3);
  EXPECT_EQ(counter_value(MetricsRegistry::global().snapshot(),
                          "test.same_name"),
            5u);
}

TEST(JsonWriter, NestedContainersAndEscaping) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array();
  w.value(2.5);
  w.value("x\"y");
  w.null();
  w.end_array();
  w.key("c").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":[2.5,"x\"y",null],"c":{}})");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json_escape("plain"), "plain");
}

#if defined(FEDL_PROFILING_ENABLED)
// Chrome-trace export: record spans on several threads, parse the essential
// structure back out of the JSON.
TEST(Profile, ChromeTraceRoundTrip) {
  obs::Profiler& prof = obs::Profiler::global();
  prof.clear();
  prof.set_enabled(true);
  {
    FEDL_PROFILE_SCOPE("test.outer");
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(pool.submit([] { FEDL_PROFILE_SCOPE("test.task"); }));
    for (auto& f : futures) f.get();
  }
  prof.set_enabled(false);
  EXPECT_GE(prof.num_spans(), 9u);

  std::ostringstream os;
  prof.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.task\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Structural sanity: balanced braces/brackets outside strings.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  prof.clear();
}

// Runtime-disabled profiling must record nothing.
TEST(Profile, DisabledRecordsNoSpans) {
  obs::Profiler& prof = obs::Profiler::global();
  prof.clear();
  prof.set_enabled(false);
  { FEDL_PROFILE_SCOPE("test.ignored"); }
  EXPECT_EQ(prof.num_spans(), 0u);
}
#endif  // FEDL_PROFILING_ENABLED

// Golden-schema check for the per-epoch JSONL decision trace: run one tiny
// seeded scenario and assert every event line carries the documented keys
// (scripts/validate_trace.py enforces the same schema from Python).
TEST(EventTrace, SeededEpochEventCarriesSchema) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 6;
  cfg.n_min = 2;
  cfg.budget = 200.0;
  cfg.max_epochs = 2;
  cfg.train_samples = 120;
  cfg.test_samples = 40;
  cfg.width_scale = 0.05;
  cfg.eval_cap = 32;
  cfg.seed = 7;
  cfg.defer_trace = true;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  ASSERT_GT(res.epochs_run, 0u);

  std::istringstream in(res.trace_jsonl);
  std::string line;
  std::size_t events = 0;
  const std::vector<std::string> top_keys = {
      "\"type\":\"epoch\"",   "\"algorithm\":",      "\"epoch\":",
      "\"num_available\":",   "\"num_selected\":",   "\"iterations\":",
      "\"rho\":",             "\"mu0\":",            "\"eta_max\":",
      "\"latency_s\":",       "\"epoch_cost\":",     "\"budget_total\":",
      "\"budget_spent\":",    "\"budget_remaining\":",
      "\"train_loss_selected\":", "\"train_loss_all\":", "\"test_loss\":",
      "\"test_accuracy\":",   "\"num_dropped\":",    "\"clients\":["};
  const std::vector<std::string> client_keys = {
      "\"id\":",        "\"cost\":",      "\"data_size\":",
      "\"tau_loc\":",   "\"tau_cm_est\":", "\"x_frac\":",
      "\"mu\":",        "\"eta_est\":",   "\"delta_est\":",
      "\"selected\":",  "\"eta_hat\":",   "\"delta_hat\":",
      "\"completed_iters\":", "\"dropped\":"};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++events;
    for (const auto& key : top_keys)
      EXPECT_NE(line.find(key), std::string::npos)
          << "event missing " << key << ": " << line.substr(0, 200);
    for (const auto& key : client_keys)
      EXPECT_NE(line.find(key), std::string::npos)
          << "client record missing " << key;
    // FedL runs must report the learner state, not nulls.
    EXPECT_EQ(line.find("\"rho\":null"), std::string::npos);
    EXPECT_EQ(line.find("\"mu0\":null"), std::string::npos);
  }
  EXPECT_EQ(events, res.epochs_run);

  // A non-FedL strategy traces the same records with null learner fields.
  auto baseline = harness::make_strategy("fedavg", cfg);
  const auto res2 = exp.run(*baseline);
  ASSERT_GT(res2.epochs_run, 0u);
  std::istringstream again(res2.trace_jsonl);
  std::size_t total = 0;
  bool saw_null_rho = false;
  while (std::getline(again, line)) {
    if (line.empty()) continue;
    ++total;
    if (line.find("\"rho\":null") != std::string::npos) saw_null_rho = true;
  }
  EXPECT_EQ(total, res2.epochs_run);
  EXPECT_TRUE(saw_null_rho);
}

TEST(Report, MetricsSummaryListsEveryKind) {
  obs::MetricsSnapshot snap;
  snap.counters["c.one"] = 42;
  snap.gauges["g.one"] = 2.5;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.counts = {3, 0, 1};
  h.total = 4;
  h.sum = 6.0;
  snap.histograms["h.one"] = h;

  std::ostringstream os;
  harness::print_metrics_summary(os, snap);
  const std::string text = os.str();
  EXPECT_NE(text.find("== Metrics"), std::string::npos);
  EXPECT_NE(text.find("c.one"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("g.one"), std::string::npos);
  EXPECT_NE(text.find("h.one"), std::string::npos);
  EXPECT_NE(text.find("mean=1.5 buckets[<=1:3 <=2:0 >2:1]"),
            std::string::npos);
}

}  // namespace
}  // namespace fedl

// Tests for the health plane added on top of the metrics registry: the
// FNV-1a determinism digests and their cross-thread-count equality on a
// real seeded run, the online invariant monitor's edge-triggered firing,
// the run manifest registry, and the check-failure flush hook.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "harness/experiment.h"
#include "obs/digest.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "parallel/scheduler.h"

namespace fedl {
namespace {

// ---------------------------------------------------------------------------
// Digest primitives

TEST(Digest, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(obs::fnv1a("", 0), obs::kFnvOffsetBasis);
  EXPECT_EQ(obs::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(obs::fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Digest, HexIsFixedWidthLowercase) {
  EXPECT_EQ(obs::digest_hex(0), "0000000000000000");
  EXPECT_EQ(obs::digest_hex(0xaf63dc4c8601ec8cULL), "af63dc4c8601ec8c");
  EXPECT_EQ(obs::digest_hex(obs::kFnvOffsetBasis), "cbf29ce484222325");
}

// Chaining two updates must equal one pass over the concatenation — that is
// what makes digest_t depend on every byte of epochs 0..t.
TEST(Digest, ChainEqualsConcatenation) {
  obs::DigestChain chained;
  chained.update("foo", 3);
  chained.update("bar", 3);
  obs::DigestChain whole;
  whole.update("foobar", 6);
  EXPECT_EQ(chained.value(), whole.value());
  EXPECT_EQ(chained.value(), 0x85944171f73967e8ULL);
}

TEST(Digest, RunCombineIsXorAndOrderIndependent) {
  obs::reset_run_digests();
  EXPECT_EQ(obs::combined_run_digest(), 0u);
  EXPECT_EQ(obs::runs_digested(), 0u);
  obs::note_run_digest(0x1111u);
  obs::note_run_digest(0x0101u);
  EXPECT_EQ(obs::combined_run_digest(), 0x1111u ^ 0x0101u);
  EXPECT_EQ(obs::runs_digested(), 2u);
  obs::reset_run_digests();
  obs::note_run_digest(0x0101u);
  obs::note_run_digest(0x1111u);
  EXPECT_EQ(obs::combined_run_digest(), 0x1111u ^ 0x0101u);
  obs::reset_run_digests();
}

// ---------------------------------------------------------------------------
// Invariant monitor

obs::EpochSample pacing_sample(std::uint64_t epoch, double cost, double cap) {
  obs::EpochSample s;
  s.epoch = epoch;
  s.epoch_cost = cost;
  s.pacing_cap = cap;
  s.budget_spent = 10.0;
  s.budget_total = 1000.0;
  return s;
}

// The ISSUE's canonical case: a deliberately overdrawn pacing trace must
// yield exactly one anomaly, not one per epoch — the monitor is
// edge-triggered and re-arms only after recovery.
TEST(Monitor, OverdrawnPacingFiresExactlyOnce) {
  obs::InvariantMonitor monitor;
  std::size_t fired = 0;
  for (std::uint64_t e = 1; e <= 10; ++e) {
    const auto anomalies = monitor.on_epoch(pacing_sample(e, 20.0, 10.0));
    fired += anomalies.size();
    for (const auto& a : anomalies) {
      EXPECT_EQ(a.monitor, "budget_pacing");
      EXPECT_EQ(a.epoch, 1u);
      EXPECT_DOUBLE_EQ(a.observed, 20.0);
    }
  }
  EXPECT_EQ(fired, 1u);

  // Recovery re-arms: a healthy epoch, then a new violation fires again.
  EXPECT_TRUE(monitor.on_epoch(pacing_sample(11, 5.0, 10.0)).empty());
  const auto again = monitor.on_epoch(pacing_sample(12, 30.0, 10.0));
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].epoch, 12u);
}

TEST(Monitor, PacingToleranceAbsorbsRoundingOvershoot) {
  obs::InvariantMonitor monitor;  // default tolerance 5%
  EXPECT_TRUE(monitor.on_epoch(pacing_sample(1, 10.4, 10.0)).empty());
  EXPECT_EQ(monitor.on_epoch(pacing_sample(2, 10.6, 10.0)).size(), 1u);
}

TEST(Monitor, HardBudgetOverdrawFires) {
  obs::InvariantMonitor monitor;
  obs::EpochSample s;
  s.epoch = 3;
  s.epoch_cost = 1.0;
  s.budget_spent = 101.0;
  s.budget_total = 100.0;
  const auto fired = monitor.on_epoch(s);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].monitor, "budget_pacing");
  EXPECT_DOUBLE_EQ(fired[0].observed, 101.0);
  EXPECT_DOUBLE_EQ(fired[0].limit, 100.0);
}

TEST(Monitor, RegretEnvelopeFiresAndSkipsInfiniteBound) {
  obs::InvariantMonitor monitor;
  obs::EpochSample inf_bound;
  inf_bound.epoch = 1;
  inf_bound.regret = 1e9;
  inf_bound.regret_bound = std::numeric_limits<double>::infinity();
  // Lemma 2 degenerate regime: the theorem promises nothing, no anomaly.
  EXPECT_TRUE(monitor.on_epoch(inf_bound).empty());

  obs::EpochSample bad;
  bad.epoch = 2;
  bad.regret = 50.0;
  bad.regret_bound = 40.0;
  const auto fired = monitor.on_epoch(bad);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].monitor, "regret_envelope");
  EXPECT_DOUBLE_EQ(fired[0].limit, 40.0);
}

TEST(Monitor, EstimatorRangeAndDriftFire) {
  obs::InvariantMonitor range_monitor;
  obs::EpochSample out_of_range;
  out_of_range.epoch = 1;
  out_of_range.eta_max = 1.5;  // realized η̂ is clamped below 1 by DANE
  const auto range_fired = range_monitor.on_epoch(out_of_range);
  ASSERT_EQ(range_fired.size(), 1u);
  EXPECT_EQ(range_fired[0].monitor, "estimator_drift");

  // A non-converging estimate: η̂ oscillating 0↔1 keeps the |Δη̂| EMA at 1,
  // far over the default 0.25 threshold once the warmup passes.
  obs::InvariantMonitor drift_monitor;
  std::size_t fired = 0;
  for (std::uint64_t e = 1; e <= 20; ++e) {
    obs::EpochSample s;
    s.epoch = e;
    s.eta_max = (e % 2 == 0) ? 1.0 : 0.0;
    fired += drift_monitor.on_epoch(s).size();
  }
  EXPECT_EQ(fired, 1u);  // edge-triggered: persistent drift is one anomaly
}

TEST(Monitor, DropoutWindowMustFillBeforeFiring) {
  obs::InvariantMonitor monitor;  // 8-epoch window, threshold 0.5
  std::size_t fired = 0;
  for (std::uint64_t e = 1; e <= obs::kDropoutWindow; ++e) {
    obs::EpochSample s;
    s.epoch = e;
    s.num_selected = 4.0;
    s.num_dropped = 4.0;  // 100% dropout every epoch
    const auto anomalies = monitor.on_epoch(s);
    fired += anomalies.size();
    if (e < obs::kDropoutWindow) {
      EXPECT_TRUE(anomalies.empty()) << "fired before window filled";
    }
  }
  EXPECT_EQ(fired, 1u);
}

TEST(Monitor, AllAbsentInputsFireNothing) {
  obs::InvariantMonitor monitor;
  for (std::uint64_t e = 1; e <= 5; ++e) {
    obs::EpochSample s;
    s.epoch = e;
    EXPECT_TRUE(monitor.on_epoch(s).empty());
  }
}

// ---------------------------------------------------------------------------
// Run manifest

TEST(Manifest, FieldsAreLastWriteWinsAndTyped) {
  obs::clear_manifest_fields();
  obs::set_manifest_field("gemm_kernel", "avx2");
  obs::set_manifest_field("gemm_kernel", "avx512");
  obs::set_manifest_field("seed", std::uint64_t{7});
  obs::set_manifest_field("scale", 0.25);
  const auto fields = obs::manifest_fields();
  EXPECT_EQ(fields.at("gemm_kernel"), "avx512");
  EXPECT_EQ(fields.at("seed"), "7");
  EXPECT_EQ(fields.at("scale"), "0.25");
  obs::clear_manifest_fields();
}

TEST(Manifest, WriteCarriesSchemaCleanFlagAndDigest) {
  obs::clear_manifest_fields();
  obs::reset_run_digests();
  obs::note_run_digest(0xaf63dc4c8601ec8cULL);
  obs::set_manifest_field("algorithm", "fedl");

  std::ostringstream clean_os;
  obs::write_manifest(clean_os, /*clean=*/true);
  const std::string clean = clean_os.str();
  EXPECT_NE(clean.find("\"schema\":\"fedl-manifest-v1\""), std::string::npos);
  EXPECT_NE(clean.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(clean.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(clean.find("\"final_digest\":\"af63dc4c8601ec8c\""),
            std::string::npos);
  EXPECT_NE(clean.find("\"runs_digested\":1"), std::string::npos);
  EXPECT_NE(clean.find("\"algorithm\":\"fedl\""), std::string::npos);

  // The crash-flush path writes the same document flagged dirty.
  std::ostringstream dirty_os;
  obs::write_manifest(dirty_os, /*clean=*/false);
  EXPECT_NE(dirty_os.str().find("\"clean\":false"), std::string::npos);
  obs::clear_manifest_fields();
  obs::reset_run_digests();
}

// ---------------------------------------------------------------------------
// Check-failure hook (the crash-flush entry point)

std::atomic<int>& hook_calls() {
  static std::atomic<int> calls{0};
  return calls;
}
void counting_hook() { hook_calls().fetch_add(1); }

TEST(CheckFailureHook, RunsBeforeCheckErrorPropagates) {
  set_check_failure_hook(&counting_hook);
  hook_calls().store(0);
  bool threw = false;
  try {
    FEDL_CHECK(1 + 1 == 3) << "deliberate failure";
  } catch (const CheckError& e) {
    threw = true;
    // The hook fired before the throw, so a crash-flush would have seen
    // the artifacts before termination.
    EXPECT_EQ(hook_calls().load(), 1);
    EXPECT_NE(std::string(e.what()).find("deliberate failure"),
              std::string::npos);
  }
  EXPECT_TRUE(threw);
  set_check_failure_hook(nullptr);
  hook_calls().store(0);
  try {
    FEDL_CHECK(false) << "hook unregistered";
  } catch (const CheckError&) {
  }
  EXPECT_EQ(hook_calls().load(), 0);
}

// ---------------------------------------------------------------------------
// Determinism digests on a real run

harness::ScenarioConfig tiny_digest_config() {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 6;
  cfg.n_min = 2;
  cfg.budget = 150.0;
  cfg.max_epochs = 3;
  cfg.train_samples = 120;
  cfg.test_samples = 40;
  cfg.width_scale = 0.05;
  cfg.eval_cap = 32;
  cfg.seed = 11;
  cfg.record_digests = true;
  return cfg;
}

std::vector<std::uint64_t> run_digests(harness::ScenarioConfig cfg) {
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  return exp.run(*strat).epoch_digests;
}

// The acceptance pin: per-epoch digest chains must be identical for any
// --jobs/--threads combination. Serial run vs a 4-wide engine fan-out vs a
// scheduler grid running four replicas concurrently (auto fan-out) must all
// produce the same chain.
TEST(Digest, EqualAcrossThreadAndJobCombinations) {
  harness::ScenarioConfig serial_cfg = tiny_digest_config();
  serial_cfg.num_threads = 1;
  const std::vector<std::uint64_t> serial = run_digests(serial_cfg);
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 1; i < serial.size(); ++i)
    EXPECT_NE(serial[i], serial[i - 1]) << "chain must advance every epoch";

  harness::ScenarioConfig threaded_cfg = tiny_digest_config();
  threaded_cfg.num_threads = 4;
  EXPECT_EQ(run_digests(threaded_cfg), serial);

  // Four concurrent scheduler trials (--jobs 4 --threads 0 in the benches).
  Scheduler::instance().configure(/*budget=*/4, /*jobs=*/4);
  std::vector<std::vector<std::uint64_t>> grid(4);
  Scheduler::instance().run_trials(4, [&](std::size_t i) {
    harness::ScenarioConfig cfg = tiny_digest_config();
    cfg.num_threads = 0;  // draw fan-out from the scheduler budget
    grid[i] = run_digests(cfg);
  });
  Scheduler::instance().configure(0, 1);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(grid[i], serial) << "trial " << i << " diverged";
}

// Digest trace records must round-trip through the JSONL trace with chain
// continuity (prev_t == digest_{t-1}), which scripts/validate_trace.py
// checks offline.
TEST(Digest, TraceRecordsChainContinuously) {
  harness::ScenarioConfig cfg = tiny_digest_config();
  cfg.defer_trace = true;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  ASSERT_FALSE(res.epoch_digests.empty());

  std::istringstream in(res.trace_jsonl);
  std::string line;
  std::vector<std::string> prevs;
  std::vector<std::string> digests;
  auto field = [](const std::string& l, const std::string& key) {
    const auto pos = l.find("\"" + key + "\":\"");
    if (pos == std::string::npos) return std::string();
    const auto start = pos + key.size() + 4;
    return l.substr(start, l.find('"', start) - start);
  };
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"digest\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"hash\":\"fnv1a64\""), std::string::npos);
    prevs.push_back(field(line, "prev"));
    digests.push_back(field(line, "digest"));
  }
  ASSERT_EQ(digests.size(), res.epoch_digests.size());
  EXPECT_EQ(prevs.front(), obs::digest_hex(obs::kFnvOffsetBasis));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], obs::digest_hex(res.epoch_digests[i]));
    if (i > 0) {
      EXPECT_EQ(prevs[i], digests[i - 1]) << "chain broken at " << i;
    }
  }
}

// A healthy seeded run with the monitor armed must stay anomaly-free — the
// acceptance criterion's zero-anomalies pin, in miniature.
TEST(Monitor, HealthySeededRunFiresNothing) {
  harness::ScenarioConfig cfg = tiny_digest_config();
  cfg.record_digests = false;
  cfg.monitor = true;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  ASSERT_GT(res.epochs_run, 0u);
  EXPECT_TRUE(res.anomalies.empty());
}

}  // namespace
}  // namespace fedl

// The observability session (obs/session.h) in one process: run_main owns
// the --trace-out file, harness runs under it append their records in run
// order, a deferred run hands its records back instead, and a strict-monitor
// failure reaches the trace file and the manifest before run_main turns it
// into exit 1.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "harness/experiment.h"
#include "obs/session.h"

namespace fedl {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/session_test_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// run_main as a binary named "session_test" given `flags`.
int run_main_with(const std::vector<std::string>& flags,
                  const std::function<void(const Flags&)>& body) {
  std::vector<const char*> argv = {"session_test", "--log=off"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  return obs::run_main(static_cast<int>(argv.size()), argv.data(), "warn",
                       body);
}

harness::ScenarioConfig tiny_config() {
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

std::string deferred_trace(const harness::ScenarioConfig& base,
                           const std::string& strategy) {
  harness::ScenarioConfig cfg = base;
  cfg.defer_trace = true;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy(strategy, cfg);
  return exp.run(*strat).trace_jsonl;
}

TEST(Session, RunsAppendTheirRecordsInRunOrder) {
  const harness::ScenarioConfig cfg = tiny_config();
  const std::string expected =
      deferred_trace(cfg, "fedl") + deferred_trace(cfg, "fedavg");
  ASSERT_FALSE(expected.empty());

  const std::string path = temp_path("two_runs.jsonl");
  bool requested = false;
  const int code = run_main_with({"--trace-out=" + path}, [&](const Flags&) {
    requested = obs::trace_requested();
    harness::Experiment exp(cfg);
    for (const char* name : {"fedl", "fedavg"}) {
      auto strat = harness::make_strategy(name, cfg);
      EXPECT_TRUE(exp.run(*strat).trace_jsonl.empty());
    }
  });
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(requested);
  EXPECT_FALSE(obs::trace_requested()) << "the session closed with run_main";
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

TEST(Session, DeferredRunAppendsNothingAndReturnsItsRecords) {
  const harness::ScenarioConfig cfg = tiny_config();
  const std::string expected = deferred_trace(cfg, "fedl");

  const std::string path = temp_path("deferred.jsonl");
  std::string returned;
  const int code = run_main_with({"--trace-out=" + path}, [&](const Flags&) {
    returned = deferred_trace(cfg, "fedl");
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(returned, expected);
  EXPECT_EQ(read_file(path), "");
  std::remove(path.c_str());
}

TEST(Session, NoTraceFileMeansNoTracing) {
  const int code = run_main_with({}, [&](const Flags&) {
    EXPECT_FALSE(obs::trace_requested());
    harness::ScenarioConfig cfg = tiny_config();
    cfg.max_epochs = 1;
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy("fedl", cfg);
    EXPECT_GT(exp.run(*strat).epochs_run, 0u);
    obs::append_trace("");  // nothing to write: a no-op
    EXPECT_THROW(obs::append_trace("{}\n"), ConfigError);
  });
  EXPECT_EQ(code, 0);
}

TEST(Session, BodyExceptionIsExitOneNamingTheBinary) {
  ::testing::internal::CaptureStderr();
  const int code = run_main_with({"--bogus-flag=7"}, [](const Flags& flags) {
    flags.require_all_read();
  });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("session_test failed: unknown flag: --bogus-flag"),
            std::string::npos)
      << err;
}

// A strict monitor that fires commits the run's records, the anomaly among
// them, before its FEDL_CHECK; the crash hook marks the manifest dirty, and
// it stays dirty when run_main closes the session on the way out.
TEST(Session, StrictMonitorFailureReachesTraceAndManifest) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 8;
  cfg.n_min = 2;
  cfg.budget = 400.0;
  cfg.train_samples = 120;
  cfg.test_samples = 40;
  cfg.width_scale = 0.05;
  cfg.eval_cap = 32;
  cfg.seed = 3;
  cfg.faults.dropout_prob = 0.9;
  cfg.strict_monitor = true;
  cfg.monitor = true;

  const std::string trace = temp_path("strict.jsonl");
  const std::string manifest = temp_path("strict_manifest.json");
  bool reached_check = false;
  ::testing::internal::CaptureStderr();
  const int code = run_main_with(
      {"--trace-out=" + trace, "--manifest-out=" + manifest},
      [&](const Flags&) {
        harness::Experiment exp(cfg);
        auto strat = harness::make_strategy("fedavg", cfg);
        try {
          exp.run(*strat);
        } catch (const CheckError&) {
          reached_check = true;
          throw;
        }
      });
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1);
  EXPECT_TRUE(reached_check);
  EXPECT_NE(err.find("session_test failed: "), std::string::npos) << err;
  EXPECT_NE(err.find("--strict-monitor: dropout_rate anomaly at epoch"),
            std::string::npos)
      << err;

  // Every selected client drops out of each of the first 8 epochs, so the
  // 8-epoch dropout window fills at epoch 8 and fires there.
  const std::string records = read_file(trace);
  EXPECT_EQ(count(records, "\"type\":\"epoch\""), 8u);
  EXPECT_EQ(count(records, "\"type\":\"anomaly\""), 1u);
  EXPECT_NE(records.find("{\"type\":\"anomaly\",\"algorithm\":\"FedAvg\","
                         "\"epoch\":8,\"monitor\":\"dropout_rate\""),
            std::string::npos);
  EXPECT_NE(read_file(manifest).find("\"clean\":false"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace fedl

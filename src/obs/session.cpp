#include "obs/session.h"

#include <atomic>
#include <cstdlib>
#include <fstream>

#include "common/error.h"
#include "common/logging.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace fedl::obs {
namespace {

// The session the crash guards flush. One live session per binary is the
// intended pattern (declared first in main); with nested sessions the most
// recent wins.
std::atomic<ObsSession*> g_active_session{nullptr};

void crash_flush() {
  if (ObsSession* session = g_active_session.load(std::memory_order_acquire))
    session->flush(/*clean=*/false);
}

void arm_atexit_guard() {
  // atexit stacks handlers; register ours once per process. On a normal
  // exit the destructor already cleared g_active_session, so this no-ops;
  // it fires for std::exit() mid-run and for uncaught exceptions routed
  // through the check-failure hook's terminate path.
  static const bool armed = [] {
    std::atexit(crash_flush);
    return true;
  }();
  (void)armed;
}

}  // namespace

ObsSession::ObsSession(const Flags& flags,
                       const std::string& default_log_level) {
  // Precedence: explicit --log > FEDL_LOG_LEVEL env var > binary default.
  if (flags.has("log"))
    set_log_level(parse_log_level(flags.get_string("log", default_log_level)));
  else
    set_log_level(log_level_from_env(parse_log_level(default_log_level)));

  trace_out_ = flags.get_string("trace-out", "");
  metrics_out_ = flags.get_string("metrics-out", "");
  profile_out_ = flags.get_string("profile-out", "");
  manifest_out_ = flags.get_string("manifest-out", "");

  if (!trace_out_.empty()) {
    // Runs append per-epoch events; start every invocation from a clean
    // file so stale epochs from a previous process never mix in.
    std::ofstream truncate(trace_out_, std::ios::trunc);
    if (!truncate) throw ConfigError("cannot open trace file: " + trace_out_);
  }
  if (!profile_out_.empty()) {
    Profiler::global().clear();
    Profiler::global().set_enabled(true);
  }

  g_active_session.store(this, std::memory_order_release);
  set_check_failure_hook(&crash_flush);
  arm_atexit_guard();
}

ObsSession::~ObsSession() {
  // Disarm the crash guards first: once teardown begins, a hook firing on a
  // half-destroyed session would be worse than a lost flush.
  g_active_session.store(nullptr, std::memory_order_release);
  set_check_failure_hook(nullptr);
  if (!profile_out_.empty()) Profiler::global().set_enabled(false);
  flush(/*clean=*/true);
}

void ObsSession::flush(bool clean) noexcept {
  std::lock_guard<std::mutex> lock(flush_mutex_);
  if (!clean) dirty_ = true;
  const bool clean_now = clean && !dirty_;
  try {
    if (!profile_out_.empty()) {
      Profiler::global().write_chrome_trace_file(profile_out_);
      FEDL_INFO << "wrote " << Profiler::global().num_spans()
                << " profile spans to " << profile_out_;
    }
    if (!metrics_out_.empty()) {
      std::ofstream out(metrics_out_, std::ios::trunc);
      if (!out) throw ConfigError("cannot write metrics: " + metrics_out_);
      MetricsRegistry::global().snapshot().write_json(out);
      FEDL_INFO << "wrote metrics snapshot to " << metrics_out_;
    }
    if (!manifest_out_.empty()) {
      write_manifest_file(manifest_out_, clean_now);
      FEDL_INFO << "wrote run manifest to " << manifest_out_
                << (clean_now ? "" : " (clean: false)");
    }
    if (!trace_out_.empty())
      FEDL_INFO << "decision trace at " << trace_out_;
  } catch (const std::exception& e) {
    FEDL_WARN << "failed to flush observability artifacts: " << e.what();
  }
}

}  // namespace fedl::obs

#include "obs/session.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>

#include "common/error.h"
#include "common/logging.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace fedl::obs {
namespace {

// The observability artifacts of one process, open for the body of
// run_main.
class ObsSession {
 public:
  ObsSession(const Flags& flags, const std::string& default_log_level);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return !trace_out_.empty(); }
  void append_trace(const std::string& lines);

  // Writes every configured artifact. clean=false marks the manifest dirty
  // permanently (crash path); clean=true is the normal exit path. Safe to
  // call from any thread and more than once — later flushes overwrite with
  // fresher snapshots. Never throws (failures are logged).
  void flush(bool clean) noexcept;

 private:
  std::string trace_out_;
  std::string metrics_out_;
  std::string profile_out_;
  std::string manifest_out_;

  std::mutex trace_mutex_;
  std::ofstream trace_;

  std::mutex flush_mutex_;
  bool dirty_ = false;  // latched by the first flush(false)
};

// The live session: the crash guards flush it and append_trace writes
// through it.
std::atomic<ObsSession*> g_active_session{nullptr};

void crash_flush() {
  if (ObsSession* session = g_active_session.load(std::memory_order_acquire))
    session->flush(/*clean=*/false);
}

void arm_atexit_guard() {
  // atexit stacks handlers; register ours once per process. On a normal
  // exit the destructor already cleared g_active_session, so this no-ops;
  // it fires for std::exit() mid-run.
  static const bool armed = [] {
    std::atexit(crash_flush);
    return true;
  }();
  (void)armed;
}

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

  if (tracing()) {
    // Start every invocation from a clean file so stale epochs from a
    // previous process never mix in.
    trace_.open(trace_out_, std::ios::trunc);
    if (!trace_) throw ConfigError("cannot open trace file: " + trace_out_);
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

void ObsSession::append_trace(const std::string& lines) {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_ << lines;
  trace_.flush();
  if (!trace_) throw ConfigError("short write on trace file: " + trace_out_);
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
    if (tracing()) FEDL_INFO << "decision trace at " << trace_out_;
  } catch (const std::exception& e) {
    FEDL_WARN << "failed to flush observability artifacts: " << e.what();
  }
}

// argv[0] without its directory, for the failure message.
std::string binary_name(int argc, const char* const* argv) {
  if (argc < 1 || argv[0] == nullptr) return "fedl";
  const std::string path = argv[0];
  return path.substr(path.find_last_of('/') + 1);
}

}  // namespace

int run_main(int argc, const char* const* argv,
             const std::string& default_log_level,
             const std::function<void(const Flags&)>& body) {
  try {
    const Flags flags(argc, argv);
    ObsSession session(flags, default_log_level);
    body(flags);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << binary_name(argc, argv) << " failed: " << e.what() << "\n";
    return 1;
  }
}

bool trace_requested() {
  const ObsSession* session = g_active_session.load(std::memory_order_acquire);
  return session != nullptr && session->tracing();
}

void append_trace(const std::string& lines) {
  if (lines.empty()) return;
  ObsSession* session = g_active_session.load(std::memory_order_acquire);
  if (session == nullptr || !session->tracing())
    throw ConfigError("append_trace: no --trace-out file is open");
  session->append_trace(lines);
}

}  // namespace fedl::obs

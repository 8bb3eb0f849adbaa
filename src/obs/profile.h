// Scoped-timer profiler with chrome://tracing / Perfetto JSON export.
//
//   void FlEngine::run_epoch(...) {
//     FEDL_PROFILE_SCOPE("fl.run_epoch");
//     ...
//   }
//
// Each thread records spans into its own log (one lock per span, only ever
// contended by a snapshot/export), so worker threads of the training pool
// show up as separate tracks in the trace viewer. Profiling is
//
//  * compiled out entirely when the CMake option FEDL_PROFILING is OFF
//    (FEDL_PROFILE_SCOPE expands to nothing), and
//  * disabled at runtime by default: an inactive scope is one relaxed
//    atomic load and a branch (~1 ns), so instrumented hot paths cost
//    nothing measurable until --profile-out switches recording on.
//
// Span names must be string literals (or otherwise outlive the profiler):
// only the pointer is stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace fedl::obs {

class Profiler {
 public:
  // Process-wide profiler; intentionally leaked like the metrics registry.
  static Profiler& global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops all recorded spans (thread logs stay registered).
  void clear();

  std::size_t num_spans() const;

  // Chrome trace event format: {"traceEvents":[{"name","cat","ph":"X",
  // "ts","dur","pid","tid"},...]} with ts/dur in microseconds. Load the
  // file in https://ui.perfetto.dev or chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;
  // Throws ConfigError on I/O failure.
  void write_chrome_trace_file(const std::string& path) const;

  // Internal: span sink for the owning thread (see FEDL_PROFILE_SCOPE).
  struct Span {
    const char* name;
    std::uint64_t start_ns;  // relative to the profiler epoch
    std::uint64_t dur_ns;
  };
  struct ThreadLog {
    std::mutex mutex;  // taken per span append and during export
    int tid = 0;
    std::string name;  // empty = unnamed; shown via thread_name metadata
    std::vector<Span> spans;
    void record(const char* span_name, std::uint64_t start_ns,
                std::uint64_t dur_ns) {
      std::lock_guard<std::mutex> lock(mutex);
      spans.push_back({span_name, start_ns, dur_ns});
    }
  };
  ThreadLog* local_log();
  std::uint64_t now_ns() const;

  // Names the calling thread's lane in the exported trace (Chrome-trace
  // "thread_name" metadata event, ph:"M"), so Perfetto shows
  // "pool-worker-3" instead of a bare tid. Cheap; safe to call whether or
  // not profiling is enabled or compiled in at the call site's level —
  // naming is registration, not recording.
  void set_thread_name(const std::string& name);

 private:
  Profiler();

  std::atomic<bool> enabled_{false};
  std::uint64_t epoch_ns_ = 0;  // steady_clock origin for span timestamps
  mutable std::mutex mutex_;    // thread-log list
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

#if defined(FEDL_PROFILING_ENABLED)

class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    Profiler& p = Profiler::global();
    if (!p.enabled()) return;
    log_ = p.local_log();
    name_ = name;
    start_ns_ = p.now_ns();
  }
  ~ProfileScope() {
    if (log_)
      log_->record(name_, start_ns_, Profiler::global().now_ns() - start_ns_);
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler::ThreadLog* log_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

#define FEDL_PROFILE_CONCAT_INNER(a, b) a##b
#define FEDL_PROFILE_CONCAT(a, b) FEDL_PROFILE_CONCAT_INNER(a, b)
#define FEDL_PROFILE_SCOPE(name) \
  ::fedl::obs::ProfileScope FEDL_PROFILE_CONCAT(fedl_profile_scope_, \
                                                __LINE__)(name)

#else  // profiling compiled out

#define FEDL_PROFILE_SCOPE(name) ((void)0)

#endif  // FEDL_PROFILING_ENABLED

}  // namespace fedl::obs

// Per-binary observability bootstrap shared by every bench and example.
//
//   int main(int argc, char** argv) {
//     Flags flags(argc, argv);
//     obs::ObsSession session(flags, "warn");
//     ...
//   }
//
// replaces the hand-rolled set_log_level(parse_log_level(...)) boilerplate
// and gives the binary the standard observability flags:
//
//   --log=<debug|info|warn|error|off>   explicit log level (highest priority;
//                                       else FEDL_LOG_LEVEL env var, else the
//                                       binary's default)
//   --metrics-out=<file>   write the metrics-registry snapshot (JSON) at exit
//   --profile-out=<file>   enable the scoped profiler and write a Chrome-
//                          trace JSON at exit
//   --trace-out=<file>     truncate <file> now; harness runs configured with
//                          trace_out() append per-epoch JSONL events to it
//   --manifest-out=<file>  write the run manifest (JSON) at exit
//
// Artifacts are flushed in the destructor, so the session must outlive the
// instrumented work (declare it first in main). The session also arms two
// crash guards — a check-failure hook (common/error.h) and an atexit
// handler — that flush whatever has been recorded *before* an uncaught
// FEDL_CHECK terminates the process, marking the manifest "clean": false.
// Once a crash-flush has happened the manifest stays dirty even if the
// exception is later caught and the session destructs normally.
#pragma once

#include <mutex>
#include <string>

#include "common/config.h"

namespace fedl::obs {

class ObsSession {
 public:
  ObsSession(const Flags& flags, const std::string& default_log_level);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  const std::string& trace_out() const { return trace_out_; }

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

  std::mutex flush_mutex_;
  bool dirty_ = false;  // latched by the first flush(false)
};

}  // namespace fedl::obs

// The one bootstrap of every bench and example:
//
//   int main(int argc, char** argv) {
//     return fedl::obs::run_main(argc, argv, "warn",
//                                [](const fedl::Flags& flags) { ... });
//   }
//
// run_main parses the flags, opens the process's observability session,
// runs the body and turns any exception into exit 1 with
// "<binary> failed: <what>" on stderr. The session gives every binary the
// standard observability flags:
//
//   --log=<debug|info|warn|error|off>   explicit log level (highest priority;
//                                       else FEDL_LOG_LEVEL env var, else the
//                                       binary's default)
//   --metrics-out=<file>   write the metrics-registry snapshot (JSON) at exit
//   --profile-out=<file>   enable the scoped profiler and write a Chrome-
//                          trace JSON at exit
//   --trace-out=<file>     the decision trace: truncated when the session
//                          opens; every harness run appends its per-epoch
//                          JSONL records through append_trace()
//   --manifest-out=<file>  write the run manifest (JSON) at exit
//
// Artifacts are flushed when the body returns or throws. The session also
// arms two crash guards — a check-failure hook (common/error.h) and an
// atexit handler — that flush whatever has been recorded *before* a
// FEDL_CHECK unwinds, marking the manifest "clean": false. Once a
// crash-flush has happened the manifest stays dirty even though run_main
// catches the exception and closes the session normally.
#pragma once

#include <functional>
#include <string>

#include "common/config.h"

namespace fedl::obs {

// Runs `body` under one observability session and returns the exit code:
// 0 when the body returns, 1 (after the message above) when parsing the
// flags, opening the session or the body throws. <binary> is the base name
// of argv[0].
int run_main(int argc, const char* const* argv,
             const std::string& default_log_level,
             const std::function<void(const Flags&)>& body);

// True while the live session has a --trace-out file. Experiment::run
// traces then; the grid benches defer their trials' traces only then.
bool trace_requested();

// Appends newline-terminated JSONL lines to the live session's trace file
// as one write, under the session's lock, so concurrent runs never
// interleave lines. Empty input is a no-op; otherwise throws ConfigError
// when no trace file is live or the write falls short.
void append_trace(const std::string& lines);

}  // namespace fedl::obs

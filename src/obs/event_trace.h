// JSONL event sink for structured telemetry: one JSON object per line,
// append-friendly so several runs (e.g. every strategy of a figure bench)
// can share one file and be split downstream by their "algorithm" field.
// The schema of each event is owned by the caller (the harness emits the
// per-epoch decision records, see harness/experiment.cpp); this class only
// guarantees whole-line atomicity under concurrent writers.
#pragma once

#include <fstream>
#include <mutex>
#include <string>

namespace fedl::obs {

class EventTraceWriter {
 public:
  // Throws ConfigError when the file cannot be opened.
  explicit EventTraceWriter(const std::string& path, bool append = true);

  const std::string& path() const { return path_; }

  // Commits a pre-serialized block of newline-terminated JSONL lines as one
  // write. Used by deferred-trace producers (the experiment-grid scheduler
  // buffers each trial's events and commits whole trials in deterministic
  // order, so concurrent trials never interleave lines).
  void write_raw(const std::string& lines);

 private:
  std::string path_;
  std::mutex mutex_;
  std::ofstream out_;
};

}  // namespace fedl::obs

#include "obs/event_trace.h"

#include "common/error.h"

namespace fedl::obs {

EventTraceWriter::EventTraceWriter(const std::string& path, bool append)
    : path_(path),
      out_(path, append ? std::ios::app : std::ios::trunc) {
  if (!out_) throw ConfigError("cannot open event trace: " + path);
}

void EventTraceWriter::write_raw(const std::string& lines) {
  if (lines.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << lines;
  out_.flush();
  if (!out_) throw ConfigError("short write on event trace: " + path_);
}

}  // namespace fedl::obs

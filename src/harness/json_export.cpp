#include "harness/json_export.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "obs/json_writer.h"

namespace fedl::harness {
namespace {

// JSON has no NaN/Inf; emit null for them.
void write_number(std::ostream& os, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  os << buf;
}

}  // namespace

void write_trace_json(std::ostream& os, const fl::TrainTrace& trace) {
  os << "{\"algorithm\":\"" << obs::json_escape(trace.algorithm)
     << "\",\"records\":[";
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const auto& r = trace.records[i];
    if (i) os << ',';
    os << "{\"epoch\":" << r.epoch << ",\"round\":" << r.round
       << ",\"time_s\":";
    write_number(os, r.sim_time_s);
    os << ",\"cost\":";
    write_number(os, r.cost_spent);
    os << ",\"train_loss\":";
    write_number(os, r.train_loss);
    os << ",\"test_loss\":";
    write_number(os, r.test_loss);
    os << ",\"test_acc\":";
    write_number(os, r.test_accuracy);
    os << ",\"selected\":" << r.num_selected
       << ",\"iters\":" << r.num_iterations << ",\"eta\":";
    write_number(os, r.eta);
    os << '}';
  }
  os << "]}";
}

void write_traces_json(std::ostream& os,
                       const std::vector<fl::TrainTrace>& traces) {
  os << '[';
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i) os << ',';
    write_trace_json(os, traces[i]);
  }
  os << "]\n";
}

void write_traces_json_file(const std::string& path,
                            const std::vector<fl::TrainTrace>& traces) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("cannot write JSON: " + path);
  write_traces_json(out, traces);
  if (!out) throw ConfigError("short write on JSON: " + path);
}

void write_run_json(std::ostream& os,
                    const std::vector<fl::TrainTrace>& traces,
                    const obs::MetricsSnapshot& snapshot) {
  os << "{\"traces\":";
  // write_traces_json ends with '\n' for standalone files; inline here.
  os << '[';
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i) os << ',';
    write_trace_json(os, traces[i]);
  }
  os << "],\"metrics\":";
  snapshot.write_json(os);
  os << "}\n";
}

void write_run_json_file(const std::string& path,
                         const std::vector<fl::TrainTrace>& traces,
                         const obs::MetricsSnapshot& snapshot) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("cannot write JSON: " + path);
  write_run_json(out, traces, snapshot);
  if (!out) throw ConfigError("short write on JSON: " + path);
}

}  // namespace fedl::harness

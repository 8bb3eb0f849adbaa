// Training traces: the per-epoch series every experiment records, and the
// derived quantities the paper reports (accuracy after a time budget,
// completion time / rounds to a target accuracy).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace fedl::fl {

struct TraceRecord {
  std::size_t epoch = 0;
  std::size_t round = 0;       // cumulative federated iterations
  double sim_time_s = 0.0;     // cumulative modeled latency Σ d(E_t)
  double cost_spent = 0.0;     // cumulative rent Σ c·x
  double train_loss = 0.0;     // F_t(w) over all available data
  double test_loss = 0.0;
  double test_accuracy = 0.0;  // in [0, 1]
  std::size_t num_selected = 0;
  std::size_t num_iterations = 0;
  double eta = 0.0;            // η_t
};

struct TrainTrace {
  std::string algorithm;
  std::vector<TraceRecord> records;

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  // First simulated time at which test accuracy reaches `target` (paper's
  // "completion time"); kNever if the trace never reaches it.
  double time_to_accuracy(double target) const {
    for (const auto& r : records)
      if (r.test_accuracy >= target) return r.sim_time_s;
    return kNever;
  }

  // First federated round at which accuracy reaches target.
  double rounds_to_accuracy(double target) const {
    for (const auto& r : records)
      if (r.test_accuracy >= target) return static_cast<double>(r.round);
    return kNever;
  }

  // Accuracy of the last record at or before simulated time `t` (records
  // at exactly `t` included). Returns 0.0 both when no record qualifies and
  // when the measured accuracy is genuinely zero.
  double accuracy_at_time(double t) const {
    double accuracy = 0.0;
    for (const auto& r : records) {
      if (r.sim_time_s > t) break;
      accuracy = r.test_accuracy;
    }
    return accuracy;
  }

  double final_accuracy() const {
    return records.empty() ? 0.0 : records.back().test_accuracy;
  }
  double final_loss() const {
    return records.empty() ? 0.0 : records.back().train_loss;
  }
  double total_time() const {
    return records.empty() ? 0.0 : records.back().sim_time_s;
  }
  double total_cost() const {
    return records.empty() ? 0.0 : records.back().cost_spent;
  }
};

}  // namespace fedl::fl

#include "harness/report.h"

#include <algorithm>
#include <cmath>

#include "common/csv.h"

namespace fedl::harness {

void print_trace_series(std::ostream& os, const std::string& figure,
                        const std::string& label,
                        const fl::TrainTrace& trace) {
  os << "== Series: " << figure << " / " << label << "\n";
  CsvTable t;
  t.add_column("epoch");
  t.add_column("round");
  t.add_column("time_s");
  t.add_column("cost");
  t.add_column("train_loss");
  t.add_column("test_loss");
  t.add_column("test_acc");
  t.add_column("selected");
  t.add_column("iters");
  t.add_column("eta");
  for (const auto& r : trace.records) {
    t.append_row({static_cast<double>(r.epoch), static_cast<double>(r.round),
                  r.sim_time_s, r.cost_spent, r.train_loss, r.test_loss,
                  r.test_accuracy, static_cast<double>(r.num_selected),
                  static_cast<double>(r.num_iterations), r.eta});
  }
  t.write(os);
  os << "\n";
}

void print_accuracy_at_time_table(std::ostream& os, double time_s,
                                  const std::vector<fl::TrainTrace>& traces) {
  os << "== Table: accuracy after " << format_num(time_s) << "s of training\n";
  TextTable t({"algorithm", "accuracy"});
  for (const auto& tr : traces)
    t.add_row({tr.algorithm, format_num(tr.accuracy_at_time(time_s))});
  t.write(os);
  os << "\n";
}

namespace {

std::string fmt_or_never(double v) {
  return std::isinf(v) ? "never" : format_num(v);
}

}  // namespace

void print_time_to_accuracy_table(std::ostream& os, double target_acc,
                                  const std::vector<fl::TrainTrace>& traces) {
  os << "== Table: completion time to accuracy " << format_num(target_acc)
     << "\n";
  TextTable t({"algorithm", "time_s"});
  for (const auto& tr : traces)
    t.add_row({tr.algorithm, fmt_or_never(tr.time_to_accuracy(target_acc))});
  t.write(os);

  // The paper's headline: FedL's saving versus the best alternative.
  if (traces.size() >= 2) {
    const double fedl = traces.front().time_to_accuracy(target_acc);
    double best_other = fl::TrainTrace::kNever;
    for (std::size_t i = 1; i < traces.size(); ++i)
      best_other =
          std::min(best_other, traces[i].time_to_accuracy(target_acc));
    if (!std::isinf(fedl) && !std::isinf(best_other) && best_other > 0.0) {
      const double saving = 100.0 * (best_other - fedl) / best_other;
      os << "-- " << traces.front().algorithm << " saving vs best baseline: "
         << format_num(saving) << "%\n";
    }
  }
  os << "\n";
}

void print_rounds_to_accuracy_table(std::ostream& os, double target_acc,
                                    const std::vector<fl::TrainTrace>& traces) {
  os << "== Table: federated rounds to accuracy " << format_num(target_acc)
     << "\n";
  TextTable t({"algorithm", "rounds"});
  for (const auto& tr : traces)
    t.add_row({tr.algorithm, fmt_or_never(tr.rounds_to_accuracy(target_acc))});
  t.write(os);
  os << "\n";
}

void print_metrics_summary(std::ostream& os,
                           const obs::MetricsSnapshot& snapshot) {
  os << "== Metrics\n";
  TextTable t({"metric", "kind", "value", "detail"});
  for (const auto& [name, v] : snapshot.counters)
    t.add_row({name, "counter", std::to_string(v), ""});
  for (const auto& [name, v] : snapshot.gauges)
    t.add_row({name, "gauge", format_num(v), ""});
  for (const auto& [name, h] : snapshot.histograms) {
    std::string detail = "mean=";
    detail.append(format_num(h.mean())).append(" buckets[");
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) detail += ' ';
      if (i < h.bounds.size())
        detail.append("<=").append(format_num(h.bounds[i]));
      else
        detail.append(">").append(format_num(h.bounds.back()));
      detail.append(":").append(std::to_string(h.counts[i]));
    }
    detail += ']';
    t.add_row({name, "histogram", std::to_string(h.total), detail});
  }
  t.write(os);
  os << "\n";
}

}  // namespace fedl::harness

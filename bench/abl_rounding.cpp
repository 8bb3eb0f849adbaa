// Ablation A1: RDCS (Algorithm 2, dependent rounding) versus independent
// rounding — the comparison motivating §4.4.
//
// Part 1 isolates the rounding algorithms: marginal preservation (Theorem 3)
// and the variance of the realized participation count.
// Part 2 runs the full FedL pipeline with each rounding mode and reports the
// end-to-end effect on completion time and accuracy.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/rounding.h"
#include "fig_common.h"
#include "obs/session.h"

namespace fedl {
namespace {

void rounding_statistics(std::uint64_t seed) {
  std::cout << "== Table: rounding statistics (K=12 fractions, 20000 trials)\n";
  Rng gen(seed);
  std::vector<double> fractions(12);
  for (auto& f : fractions) f = gen.uniform(0.05, 0.95);
  double target = 0.0;
  for (double f : fractions) target += f;

  TextTable table({"method", "mean_sum", "stddev_sum", "max_marginal_err"});
  for (const bool dependent : {true, false}) {
    Rng rng(seed + 1);
    RunningStat sum_stat;
    std::vector<double> marginal(fractions.size(), 0.0);
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
      const auto r = dependent ? core::rdcs_round(fractions, rng)
                               : core::independent_round(fractions, rng);
      int s = 0;
      for (std::size_t k = 0; k < r.size(); ++k) {
        s += r[k];
        marginal[k] += r[k];
      }
      sum_stat.add(s);
    }
    double max_err = 0.0;
    for (std::size_t k = 0; k < fractions.size(); ++k)
      max_err = std::max(max_err,
                         std::abs(marginal[k] / trials - fractions[k]));
    table.add_row({dependent ? "RDCS" : "independent",
                   format_num(sum_stat.mean()), format_num(sum_stat.stddev()),
                   format_num(max_err)});
  }
  table.write(std::cout);
  std::cout << "-- target sum: " << format_num(target) << "\n\n";
}

void end_to_end(const harness::ScenarioConfig& cfg) {
  harness::Experiment exp(cfg);
  std::vector<fl::TrainTrace> traces;
  for (const std::string name : {"fedl", "fedl-ind"}) {
    auto strat = harness::make_strategy(name, cfg);
    auto res = exp.run(*strat);
    res.trace.algorithm = (name == "fedl") ? "FedL(RDCS)" : "FedL(indep)";
    traces.push_back(std::move(res.trace));
  }
  for (const auto& t : traces)
    harness::print_trace_series(std::cout, "A1 rounding", t.algorithm, t);

  std::cout << "== Table: participation-count stability per epoch\n";
  TextTable table({"method", "mean_selected", "stddev_selected", "final_acc"});
  for (const auto& t : traces) {
    RunningStat sel;
    for (const auto& r : t.records) sel.add(static_cast<double>(r.num_selected));
    table.add_row({t.algorithm, format_num(sel.mean()),
                   format_num(sel.stddev()), format_num(t.final_accuracy())});
  }
  table.write(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace fedl

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
    // Part 1's default seed is 7; part 2 takes the figure benches' flags
    // (default seed 1). One --seed sets both.
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
    const harness::ScenarioConfig cfg =
        bench::scenario_from_flags(flags, harness::Task::kFmnistLike);
    flags.require_all_read();
    rounding_statistics(seed);
    end_to_end(cfg);
  });
}

// Ablation A7: the selection-fairness extension (paper §7 future work).
// Compares vanilla FedL, FedL with the fairness quota, and FedAvg (naturally
// fair through uniform sampling) on Jain's index of the per-client selection
// counts versus the latency/accuracy cost of spreading selections.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "core/fairness.h"
#include "core/fedl_strategy.h"
#include "harness/experiment.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
    harness::ScenarioConfig cfg;
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 12));
    cfg.n_min = 4;
    cfg.budget = flags.get_double("budget", 600.0);
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 30));
    cfg.train_samples = static_cast<std::size_t>(flags.get_int("samples", 500));
    cfg.test_samples = 150;
    cfg.width_scale = flags.get_double("scale", 0.08);
    cfg.batch_cap = 16;
    cfg.eval_cap = 96;
    cfg.dane.sgd_steps = 2;
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.require_all_read();
    harness::Experiment exp(cfg);

    std::cout << "== Table: fairness vs efficiency\n";
    TextTable table(
        {"strategy", "jains_index", "total_time_s", "final_acc"});
    for (const std::string name : {"fedl", "fedl-fair", "fedavg"}) {
      auto strat = harness::make_strategy(name, cfg);
      const auto res = exp.run(*strat);
      std::string jain = "n/a";
      if (auto* fedl = dynamic_cast<core::FedLStrategy*>(strat.get())) {
        jain = format_num(core::jains_index(
            core::selection_counts(fedl->participation(), cfg.num_clients)));
      }
      table.add_row({res.trace.algorithm, jain,
                     format_num(res.trace.total_time()),
                     format_num(res.trace.final_accuracy())});
    }
    table.write(std::cout);
    std::cout << "\n";
  });
}

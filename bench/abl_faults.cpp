// Ablation A10: robustness to mid-epoch client failures. Sweeps the per-
// client dropout probability and compares FedL against FedAvg — failed
// clients cost a server timeout and contribute nothing past their failure
// iteration, so selection quality matters even more under churn.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "harness/experiment.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
    const std::vector<double> rates =
        flags.get_double_list("dropout", {0.0, 0.1, 0.3});
    harness::ScenarioConfig base;
    base.num_clients = static_cast<std::size_t>(flags.get_int("clients", 12));
    base.n_min = 4;
    base.budget = flags.get_double("budget", 500.0);
    base.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 25));
    base.train_samples =
        static_cast<std::size_t>(flags.get_int("samples", 500));
    base.test_samples = 150;
    base.width_scale = flags.get_double("scale", 0.08);
    base.batch_cap = 16;
    base.eval_cap = 96;
    base.dane.sgd_steps = 2;
    base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.require_all_read();

    std::cout << "== Table: accuracy/time under mid-epoch dropout\n";
    TextTable table({"strategy", "dropout", "final_acc", "total_time_s",
                     "epochs"});
    for (const std::string name : {"fedl", "fedavg"}) {
      for (double rate : rates) {
        harness::ScenarioConfig cfg = base;
        cfg.faults.dropout_prob = rate;
        harness::Experiment exp(cfg);
        auto strat = harness::make_strategy(name, cfg);
        const auto res = exp.run(*strat);
        table.add_row({res.trace.algorithm, format_num(rate),
                       format_num(res.trace.final_accuracy()),
                       format_num(res.trace.total_time()),
                       std::to_string(res.epochs_run)});
      }
    }
    table.write(std::cout);
    std::cout << "\n";
  });
}

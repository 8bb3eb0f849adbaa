// Ablation A3: sensitivity to the step sizes β (primal) and δ (dual).
// Corollary 1 prescribes β = δ = O(T_C^{-1/3}); this bench sweeps the shared
// step size and reports regret, fit, completion time and accuracy so the
// prescribed region is visible as the sweet spot.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "core/fedl_strategy.h"
#include "harness/experiment.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
    const std::vector<double> steps =
        flags.get_double_list("steps", {0.02, 0.1, 0.3, 1.0, 3.0});

    harness::ScenarioConfig cfg;
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 14));
    cfg.n_min = 4;
    cfg.budget = flags.get_double("budget", 600.0);
    cfg.train_samples = static_cast<std::size_t>(flags.get_int("samples", 600));
    cfg.test_samples = 150;
    cfg.width_scale = flags.get_double("scale", 0.08);
    cfg.batch_cap = 16;
    cfg.eval_cap = 96;
    cfg.dane.sgd_steps = 2;
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 25));
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.require_all_read();

    harness::Experiment exp(cfg);

    std::cout << "== Series: A3 stepsize / sweep (beta = delta)\n";
    CsvTable table;
    table.add_column("step");
    table.add_column("regret");
    table.add_column("fit");
    table.add_column("total_time_s");
    table.add_column("final_acc");
    for (double step : steps) {
      core::FedLConfig fc;
      fc.learner.beta = step;
      fc.learner.delta = step;
      fc.learner.n_min = cfg.n_min;
      fc.learner.theta = cfg.theta;
      fc.l_max = 6;
      fc.learner.rho_max = 6.0;
      fc.seed = cfg.seed * 61 + 37;
      core::FedLStrategy strat(cfg.num_clients, fc);
      const auto res = exp.run(strat);
      table.append_row({step, res.regret.regret(), res.regret.fit(),
                        res.trace.total_time(),
                        res.trace.final_accuracy()});
    }
    table.write(std::cout);
    std::cout << "\n";
  });
}

// Capacity planning with the FedL public API: given a target accuracy,
// sweep candidate budgets, report the horizon bounds T_C from the paper's
// formula, and find the smallest budget that reaches the target.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "core/budget.h"
#include "harness/experiment.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
    const double target = flags.get_double("target-acc", 0.5);
    const auto budgets =
        flags.get_double_list("budgets", {150, 300, 600, 1200});

    harness::ScenarioConfig cfg;
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 12));
    cfg.n_min = static_cast<std::size_t>(flags.get_int("n", 4));
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 60));
    cfg.train_samples = static_cast<std::size_t>(flags.get_int("samples", 500));
    cfg.width_scale = flags.get_double("scale", 0.08);
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
    flags.require_all_read();

    std::cout << "Budget planning for target accuracy " << target << "\n\n";

    // The paper's stopping-time range for each candidate budget, using the
    // cost distribution bounds from the device model (U[0.1, 12]).
    std::cout << "== Table: horizon bounds T_C = C/(n*cost)\n";
    TextTable horizon({"budget", "T_C_min", "T_C_max"});
    for (double c : budgets) {
      const auto hb =
          core::BudgetLedger::horizon_bounds(c, cfg.n_min, 0.1, 12.0);
      horizon.add_row({format_num(c), format_num(hb.lower),
                       format_num(hb.upper)});
    }
    horizon.write(std::cout);
    std::cout << "\n";

    std::cout << "== Table: budget sweep with FedL\n";
    TextTable sweep({"budget", "epochs", "final_acc", "time_to_target_s",
                     "cost_spent"});
    double best_budget = -1.0;
    for (double c : budgets) {
      harness::ScenarioConfig run_cfg = cfg;
      run_cfg.budget = c;
      harness::Experiment exp(run_cfg);
      auto strat = harness::make_strategy("fedl", run_cfg);
      const auto res = exp.run(*strat);
      const double t = res.trace.time_to_accuracy(target);
      sweep.add_row({format_num(c), std::to_string(res.epochs_run),
                     format_num(res.trace.final_accuracy()),
                     std::isinf(t) ? "never" : format_num(t),
                     format_num(res.trace.total_cost())});
      if (best_budget < 0 && !std::isinf(t)) best_budget = c;
    }
    sweep.write(std::cout);
    std::cout << "\n";
    if (best_budget > 0)
      std::cout << "Smallest evaluated budget reaching the target: "
                << best_budget << "\n";
    else
      std::cout << "No evaluated budget reaches the target; raise the budget "
                   "range or lower the target.\n";
  });
}

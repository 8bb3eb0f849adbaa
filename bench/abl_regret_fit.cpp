// Ablation A2: empirical check of Theorem 2 / Corollary 1 — dynamic regret
// and dynamic fit should grow sub-linearly in the budget-induced horizon
// T_C (the theory gives O(T_C^{2/3}) for β = δ = O(T_C^{-1/3})).
//
// The bench sweeps the budget (which scales T_C), records Reg and Fit at
// each horizon, and reports the log-log growth slopes; slope < 1 is the
// sub-linearity the paper proves.
#include <cmath>
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/stats.h"
#include "harness/experiment.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  try {
    Flags flags(argc, argv);
    obs::ObsSession session(flags, "warn");

    const std::vector<double> budgets =
        flags.get_double_list("budgets", {120, 240, 480, 960, 1920});

    harness::ScenarioConfig base;
    base.num_clients = static_cast<std::size_t>(flags.get_int("clients", 14));
    base.n_min = static_cast<std::size_t>(flags.get_int("n", 4));
    base.train_samples =
        static_cast<std::size_t>(flags.get_int("samples", 500));
    base.test_samples = 150;
    base.width_scale = flags.get_double("scale", 0.06);
    base.batch_cap = 16;
    base.eval_cap = 96;
    base.dane.sgd_steps = 2;
    base.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 120));
    base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.require_all_read();

    std::cout << "== Series: A2 regret-fit / growth\n";
    CsvTable table;
    table.add_column("budget");
    table.add_column("T_C");
    table.add_column("regret");
    table.add_column("fit");
    table.add_column("regret_per_epoch");
    table.add_column("V_phi");
    table.add_column("V_h");
    table.add_column("thm2_regret_bound");
    table.add_column("thm2_fit_bound");

    // Assumption-constant estimates for the scenario scale (latencies are a
    // few seconds, K ≈ n clients per epoch, losses O(1)).
    core::TheoremConstants tc_consts;
    tc_consts.g_f = 10.0;
    tc_consts.g_h = 5.0;
    tc_consts.radius = 4.0;
    tc_consts.xi = 20.0;

    // Corollary 1's sub-linearity is relative to the comparator path length
    // V({Φ*_t}): with heavy availability churn V(Φ*) itself grows linearly
    // and the bound is Θ(T^{4/3}) — regret may legitimately be linear. We
    // therefore sweep two environments: the default dynamic one and a
    // stable one (full availability) where the comparator moves less.
    struct Sweep {
      const char* label;
      double availability;
    };
    for (const Sweep sweep : {Sweep{"dynamic", 0.8}, Sweep{"stable", 1.0}}) {
      std::cout << "-- Environment: " << sweep.label << "\n";
      CsvTable sweep_table = table;  // fresh copy of the empty column set
      std::vector<double> horizons, regrets, fits;
      for (double budget : budgets) {
        harness::ScenarioConfig cfg = base;
        cfg.budget = budget;
        cfg.availability = sweep.availability;
        harness::Experiment exp(cfg);
        auto strat = harness::make_strategy("fedl", cfg);
        const auto res = exp.run(*strat);
        const double tc = static_cast<double>(res.epochs_run);
        const double reg = std::max(res.regret.regret(), 1e-9);
        const double fit = std::max(res.regret.fit(), 1e-9);
        const double bound = core::theorem2_regret_bound(
            tc_consts, res.regret.v_phi(), res.regret.v_h(),
            res.regret.v_h_step_max(), tc);
        const double fit_bound =
            core::theorem2_fit_bound(tc_consts, res.regret.v_h_step_max());
        sweep_table.append_row({budget, tc, reg, fit,
                                reg / std::max(tc, 1.0), res.regret.v_phi(),
                                res.regret.v_h(), bound, fit_bound});
        horizons.push_back(tc);
        regrets.push_back(reg);
        fits.push_back(fit);
      }
      sweep_table.write(std::cout);

      std::cout << "\n== Table: log-log growth slopes, " << sweep.label
                << " (sub-linear < 1)\n";
      TextTable slopes({"quantity", "slope", "paper_bound"});
      slopes.add_row({"regret", format_num(loglog_slope(horizons, regrets)),
                      "O(max{V_phi, T^2/3} T^1/3)"});
      slopes.add_row({"fit", format_num(loglog_slope(horizons, fits)),
                      "O(T^2/3) -> 0.67"});
      slopes.write(std::cout);
      std::cout << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
}

// Device-heterogeneity study: make half the fleet deliberately slow and
// verify that FedL's online learner discovers the fast half from latency
// feedback alone — the "explore the best clients" behaviour §6.2 credits
// for FedL's wins — while FedAvg keeps paying for stragglers.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "core/fedl_strategy.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  try {
    Flags flags(argc, argv);
    obs::ObsSession session(flags, "info");

    harness::ScenarioConfig cfg;
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 12));
    cfg.n_min = static_cast<std::size_t>(flags.get_int("n", 3));
    cfg.budget = flags.get_double("budget", 600.0);
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 35));
    cfg.train_samples = static_cast<std::size_t>(flags.get_int("samples", 500));
    cfg.width_scale = flags.get_double("scale", 0.08);
    cfg.availability = 1.0;  // isolate the compute-heterogeneity effect
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 9));
    const double target_acc = flags.get_double("target-acc", 0.5);
    flags.require_all_read();

    std::cout << "Heterogeneity study: " << cfg.num_clients
              << " devices with heterogeneous CPUs (see per-device table)\n\n";

    harness::Experiment exp(cfg);

    std::vector<fl::TrainTrace> traces;
    std::unique_ptr<core::SelectionStrategy> fedl_keep;
    const core::OnlineLearner* learner = nullptr;
    for (const std::string name : {"fedl", "fedavg"}) {
      auto strat = harness::make_strategy(name, cfg);
      auto res = exp.run(*strat);
      traces.push_back(std::move(res.trace));
      if (name == "fedl") {
        fedl_keep = std::move(strat);
        learner =
            &static_cast<core::FedLStrategy*>(fedl_keep.get())->learner();
      }
    }

    harness::print_time_to_accuracy_table(std::cout, target_acc, traces);

    // Correlate the learned selection fractions against device speed. We
    // rebuild the environment spec to read the same device draw the runs saw.
    std::cout << "== Table: learned preference vs device compute latency\n";
    TextTable table({"device", "x_fraction", "note"});
    std::vector<std::pair<double, std::size_t>> by_pref;
    for (std::size_t k = 0; k < cfg.num_clients; ++k)
      by_pref.push_back({learner->x_fraction(k), k});
    std::sort(by_pref.rbegin(), by_pref.rend());
    for (const auto& [frac, k] : by_pref) {
      const char* note =
          frac > 0.5 ? "preferred" : (frac < 0.05 ? "avoided" : "neutral");
      table.add_row({std::to_string(k), format_num(frac), note});
    }
    table.write(std::cout);
    std::cout << "\nFedL total simulated time: " << traces[0].total_time()
              << "s vs FedAvg " << traces[1].total_time() << "s\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "example failed: " << e.what() << "\n";
    return 1;
  }
}

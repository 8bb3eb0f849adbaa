// Ablation A5: the local update rule — the paper's DANE surrogate versus
// FedProx (proximal only, Li et al. [15]) and plain local SGD (FedAvg [19]),
// plus the inner optimizer (SGD / Momentum / Adam). Shows why the paper
// anchors local descent on the broadcast global gradient.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "harness/experiment.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
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
    base.iid = false;  // heterogeneity is where the rules differ
    base.dane.sgd_steps = 3;
    base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.require_all_read();

    struct Variant {
      const char* label;
      fl::LocalUpdateRule rule;
      const char* optimizer;
    };
    const Variant variants[] = {
        {"DANE+sgd", fl::LocalUpdateRule::kDane, "sgd"},
        {"DANE+momentum", fl::LocalUpdateRule::kDane, "momentum"},
        {"DANE+adam", fl::LocalUpdateRule::kDane, "adam"},
        {"FedProx+sgd", fl::LocalUpdateRule::kFedProx, "sgd"},
        {"LocalSGD", fl::LocalUpdateRule::kSgd, "sgd"},
    };

    std::cout << "== Series: A5 local-solver / non-IID comparison\n";
    CsvTable table;
    table.add_column("variant");  // encoded as row index; names printed below
    table.add_column("final_acc");
    table.add_column("final_loss");
    table.add_column("total_time_s");
    table.add_column("rounds");

    TextTable names({"row", "variant"});
    int row = 0;
    for (const auto& v : variants) {
      harness::ScenarioConfig cfg = base;
      cfg.dane.rule = v.rule;
      cfg.dane.optimizer = v.optimizer;
      harness::Experiment exp(cfg);
      auto strat = harness::make_strategy("fedl", cfg);
      const auto res = exp.run(*strat);
      table.append_row({static_cast<double>(row),
                        res.trace.final_accuracy(), res.trace.final_loss(),
                        res.trace.total_time(),
                        res.trace.records.empty()
                            ? 0.0
                            : static_cast<double>(res.trace.records.back().round)});
      names.add_row({std::to_string(row), v.label});
      ++row;
    }
    table.write(std::cout);
    std::cout << "\n== Table: variant legend\n";
    names.write(std::cout);
    std::cout << "\n";
  });
}

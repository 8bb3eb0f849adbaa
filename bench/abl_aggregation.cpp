// Ablation A8: the server aggregation denominator — the paper's formula
// w += (1/|E_t|)·Σ x_k d_k (average over *available* clients) versus the
// standard selected-mean w += (1/|S_t|)·Σ d_k (DESIGN.md §4 documents why
// the library defaults to the latter). Also contrasts the paper roster under
// the paper rule so the orderings can be compared.
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
    base.dane.sgd_steps = 2;
    base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    flags.require_all_read();

    std::cout << "== Table: aggregation rule x strategy\n";
    TextTable table({"strategy", "rule", "final_acc", "final_loss",
                     "rounds_to_acc_0.5"});
    for (const std::string name : {"fedl", "fedavg"}) {
      for (const auto rule : {fl::AggregationRule::kSelectedMean,
                              fl::AggregationRule::kPaperMean}) {
        harness::ScenarioConfig cfg = base;
        cfg.aggregation = rule;
        harness::Experiment exp(cfg);
        auto strat = harness::make_strategy(name, cfg);
        const auto res = exp.run(*strat);
        const double rounds = res.trace.rounds_to_accuracy(0.5);
        table.add_row(
            {res.trace.algorithm,
             rule == fl::AggregationRule::kPaperMean ? "paper 1/|E_t|"
                                                     : "selected 1/|S_t|",
             format_num(res.trace.final_accuracy()),
             format_num(res.trace.final_loss()),
             std::isinf(rounds) ? "never" : format_num(rounds)});
      }
    }
    table.write(std::cout);
    std::cout << "\n";
  });
}

// Ablation A9: uplink update compression. With the paper's constant payload
// s the uplink dominates slow clients' latency; stochastic quantization and
// top-k sparsification shrink τ^cm at the cost of noisier aggregates. The
// bench reports accuracy/time/total-latency per compressor in both
// execution modes — lockstep and event mode (K=4), which time every step
// with the same payload — so the communication/accuracy trade-off is
// visible with and without the epoch barrier.
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

    std::cout << "== Table: uplink compression trade-off (FedL), lockstep "
                 "and event mode (K=4)\n";
    TextTable table({"compressor", "mode", "total_time_s", "final_acc",
                     "final_loss", "epochs"});
    for (const std::string comp :
         {"none", "quant8", "quant4", "topk10", "topk1"})
      for (const bool async : {false, true}) {
        harness::ScenarioConfig cfg = base;
        cfg.compressor = comp;
        cfg.async.enabled = async;
        cfg.async.buffer_k = 4;
        harness::Experiment exp(cfg);
        auto strat = harness::make_strategy("fedl", cfg);
        const auto res = exp.run(*strat);
        table.add_row({comp, async ? "event" : "lockstep",
                       format_num(res.trace.total_time()),
                       format_num(res.trace.final_accuracy()),
                       format_num(res.trace.final_loss()),
                       std::to_string(res.epochs_run)});
      }
    table.write(std::cout);
    std::cout << "\n";
  });
}

// Data/exchange workflow example: export the synthetic dataset to the
// standard IDX (MNIST) format, reload it, and run a budgeted FL session in
// two halves, the second warm-started from the model the first one saved.
// A warm start carries over only the global model w: the learner's duals
// and η̂/Δ̂, the budget ledger and the RNG streams start afresh, so each
// half gets — and may spend — the full budget C. Users with the real
// Fashion-MNIST files can point data::load_idx at them and run every
// experiment on true data.
#include <cstdio>
#include <iostream>

#include "common/config.h"
#include "common/logging.h"
#include "data/idx_loader.h"
#include "data/synthetic.h"
#include "harness/experiment.h"
#include "nn/serialize.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "info", [](const Flags& flags) {
    const std::string dir = flags.get_string("dir", "/tmp");
    const std::string img = dir + "/fedl_demo-images-idx3-ubyte";
    const std::string lab = dir + "/fedl_demo-labels-idx1-ubyte";
    const std::string ckpt = dir + "/fedl_demo_model.bin";
    const auto samples =
        static_cast<std::size_t>(flags.get_int("samples", 400));
    harness::ScenarioConfig cfg;
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 10));
    cfg.n_min = 3;
    cfg.budget = flags.get_double("budget", 150.0);
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 6));
    cfg.width_scale = flags.get_double("scale", 0.06);
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 4));
    cfg.warm_start_path = ckpt;
    flags.require_all_read();
    std::remove(ckpt.c_str());

    // 1) Export a synthetic dataset in IDX format and read it back.
    data::SyntheticSpec spec = data::fmnist_like_spec(samples, cfg.seed);
    spec.noise_stddev = 0.25;  // keep pixels mostly in [0,1] for 8-bit export
    spec.signal_scale = 0.3;
    data::Dataset original = data::make_synthetic(spec);
    data::save_idx(original, img, lab);
    data::Dataset reloaded = data::load_idx(img, lab);
    std::cout << "exported+reloaded " << reloaded.size()
              << " samples via IDX (" << img << ")\n";

    // 2) Run a budgeted FL session in two halves; the first saves its final
    //    global model, the second warm-starts from it with a fresh budget.
    cfg.train_samples = reloaded.size();
    harness::Experiment exp(cfg);
    auto strat1 = harness::make_strategy("fedl", cfg);
    const auto first = exp.run(*strat1);
    std::cout << "first half:  " << first.epochs_run << " epochs, accuracy "
              << first.trace.final_accuracy() << ", cost "
              << first.trace.total_cost() << "/" << cfg.budget
              << ", model saved to " << ckpt << "\n";

    auto strat2 = harness::make_strategy("fedl", cfg);
    const auto second = exp.run(*strat2);  // warm-starts from the saved model
    std::cout << "second half: " << second.epochs_run
              << " epochs (warm start), accuracy "
              << second.trace.final_accuracy() << ", cost "
              << second.trace.total_cost() << "/" << cfg.budget << "\n";

    if (!second.trace.records.empty() &&
        second.trace.records.front().test_accuracy + 0.05 >=
            first.trace.final_accuracy()) {
      std::cout << "warm start confirmed: second session started from the "
                   "first session's model, not from scratch.\n";
    }

    std::remove(img.c_str());
    std::remove(lab.c_str());
    std::remove(ckpt.c_str());
  });
}

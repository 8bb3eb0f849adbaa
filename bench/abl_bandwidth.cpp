// Ablation A6: FDMA bandwidth allocation policy — equal share (the paper's
// assumption) versus inverse-rate weighting and the makespan-optimal
// min-max split. Reports (1) isolated per-epoch upload makespans over many
// channel draws and (2) the end-to-end effect on FedL's completion time.
#include <iostream>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness/experiment.h"
#include "net/bandwidth.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "warn", [](const Flags& flags) {
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
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
    base.seed = seed;
    flags.require_all_read();

    const net::BandwidthPolicy policies[] = {
        net::BandwidthPolicy::kEqual, net::BandwidthPolicy::kInverseRate,
        net::BandwidthPolicy::kMinMaxLatency};

    // Part 1: isolated makespans across random channel epochs.
    std::cout << "== Table: upload makespan over 200 channel draws "
                 "(6 clients, 10 Mb update)\n";
    TextTable iso({"policy", "mean_makespan_s", "p95_makespan_s"});
    for (const auto policy : policies) {
      net::ChannelSpec spec;
      spec.seed = seed;
      net::ChannelModel channel(12, spec);
      RunningStat stat;
      std::vector<double> makespans;
      for (int draw = 0; draw < 200; ++draw) {
        channel.advance_epoch();
        const auto alloc = net::allocate_bandwidth(
            channel, {0, 2, 4, 6, 8, 10}, 1e7, policy);
        stat.add(alloc.makespan_s);
        makespans.push_back(alloc.makespan_s);
      }
      iso.add_row({net::bandwidth_policy_name(policy),
                   format_num(stat.mean()),
                   format_num(percentile(makespans, 95))});
    }
    iso.write(std::cout);
    std::cout << "\n";

    // Part 2: end-to-end FedL runs under each policy.
    std::cout << "== Table: FedL end-to-end under each policy\n";
    TextTable e2e({"policy", "total_time_s", "final_acc", "epochs"});
    for (const auto policy : policies) {
      harness::ScenarioConfig cfg = base;
      cfg.bandwidth = policy;
      harness::Experiment exp(cfg);
      auto strat = harness::make_strategy("fedl", cfg);
      const auto res = exp.run(*strat);
      e2e.add_row({net::bandwidth_policy_name(policy),
                   format_num(res.trace.total_time()),
                   format_num(res.trace.final_accuracy()),
                   std::to_string(res.epochs_run)});
    }
    e2e.write(std::cout);
    std::cout << "\n";
  });
}

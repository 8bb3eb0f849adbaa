// Quickstart: run FedL against FedAvg on a small FMNIST-like scenario and
// print the training traces plus the completion-time comparison.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--clients 20] [--budget 400] [--seed 1]
//
// Observability (see README "Observability" for the Perfetto walkthrough):
//   --trace-out=trace.jsonl     per-epoch decision telemetry (JSONL)
//   --metrics-out=metrics.json  counters/gauges/histograms snapshot at exit
//   --profile-out=profile.json  Chrome-trace timeline (chrome://tracing)
//   --manifest-out=manifest.json run manifest (build, kernel, seeds, digest)
//   --monitor / --strict-monitor online invariant monitor (anomaly records)
//   --digest                     per-epoch determinism digest chain
#include <iostream>

#include "common/config.h"
#include "common/logging.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "obs/metrics.h"
#include "obs/session.h"

int main(int argc, char** argv) {
  using namespace fedl;
  return obs::run_main(argc, argv, "info", [](const Flags& flags) {
    harness::ScenarioConfig cfg;
    cfg.task = harness::Task::kFmnistLike;
    cfg.iid = flags.get_bool("iid", true);
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 20));
    cfg.n_min = static_cast<std::size_t>(flags.get_int("n", 4));
    cfg.budget = flags.get_double("budget", 400.0);
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 30));
    cfg.train_samples =
        static_cast<std::size_t>(flags.get_int("samples", 1200));
    cfg.width_scale = flags.get_double("scale", 0.15);
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    cfg.monitor = flags.get_bool("monitor", false);
    cfg.strict_monitor = flags.get_bool("strict-monitor", false);
    if (cfg.strict_monitor) cfg.monitor = true;
    cfg.record_digests = flags.get_bool("digest", false);
    flags.require_all_read();

    std::cout << "FedL quickstart: " << cfg.num_clients << " clients, budget "
              << cfg.budget << ", " << (cfg.iid ? "IID" : "non-IID")
              << " data\n\n";

    harness::Experiment exp(cfg);
    std::vector<fl::TrainTrace> traces;
    for (const char* name : {"fedl", "fedavg"}) {
      auto strat = harness::make_strategy(name, cfg);
      harness::RunResult res = exp.run(*strat);
      traces.push_back(std::move(res.trace));
    }

    for (const auto& t : traces)
      harness::print_trace_series(std::cout, "quickstart", t.algorithm, t);
    harness::print_accuracy_at_time_table(std::cout, traces[0].total_time(),
                                          traces);
    harness::print_time_to_accuracy_table(std::cout, 0.6, traces);
    harness::print_metrics_summary(std::cout,
                                   obs::MetricsRegistry::global().snapshot());
  });
}

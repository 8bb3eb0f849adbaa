// The paper's motivating scenario (§1): federated training of a news
// recommendation model where user interests drift over time. Client data is
// non-IID (each user reads a couple of principal topics), arrives online as
// a Poisson stream, and the drifting window models changing interests.
//
// The example runs FedL against the paper roster on this scenario and shows
// how FedL's learned per-client preferences track the drift.
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
    cfg.task = harness::Task::kFmnistLike;  // 10 "topics" instead of 10 classes
    cfg.iid = false;                        // users read a few principal topics
    cfg.num_clients = static_cast<std::size_t>(flags.get_int("clients", 14));
    cfg.n_min = static_cast<std::size_t>(flags.get_int("n", 4));
    cfg.budget = flags.get_double("budget", 700.0);
    cfg.max_epochs = static_cast<std::size_t>(flags.get_int("epochs", 40));
    cfg.train_samples = static_cast<std::size_t>(flags.get_int("samples", 700));
    cfg.width_scale = flags.get_double("scale", 0.08);
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));
    const double target_acc = flags.get_double("target-acc", 0.4);
    flags.require_all_read();

    std::cout << "Edge news recommendation: " << cfg.num_clients
              << " users with drifting, non-IID reading histories; budget "
              << cfg.budget << "\n\n";

    harness::Experiment exp(cfg);
    std::vector<fl::TrainTrace> traces;
    const core::OnlineLearner* learner = nullptr;
    std::unique_ptr<core::SelectionStrategy> fedl_strat;
    for (const auto& name : harness::paper_roster()) {
      auto strat = harness::make_strategy(name, cfg);
      auto res = exp.run(*strat);
      traces.push_back(std::move(res.trace));
      if (name == "fedl") {
        fedl_strat = std::move(strat);  // keep alive for introspection
        learner =
            &static_cast<core::FedLStrategy*>(fedl_strat.get())->learner();
      }
    }

    for (const auto& t : traces)
      harness::print_trace_series(std::cout, "news-recsys", t.algorithm, t);
    harness::print_time_to_accuracy_table(std::cout, target_acc, traces);

    // Show what FedL learned about each user: its selection fraction memory
    // and the per-client convergence/utility estimates.
    std::cout << "== Table: FedL's learned per-user state\n";
    TextTable table({"user", "x_fraction", "eta_estimate", "delta_estimate"});
    for (std::size_t k = 0; k < cfg.num_clients; ++k) {
      table.add_row({std::to_string(k), format_num(learner->x_fraction(k)),
                     format_num(learner->eta_estimate(k)),
                     format_num(learner->delta_estimate(k))});
    }
    table.write(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "example failed: " << e.what() << "\n";
    return 1;
  }
}

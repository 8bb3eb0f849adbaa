// Harness-matrix oracle: dumps every RunResult field of 96 small runs,
// {lockstep, event} × {none, quant8, topk10} × dropout {0, 0.2} ×
// seeds {1, 7} × {fedl, fedavg, fedcs, powd}, with the monitor,
// determinism digests and the deferred JSONL trace on.
//
//   harness_dump BUDGET [SEED]
//
// BUDGET is the Scheduler thread budget (default 1); SEED keeps only that
// seed's cells. The dump is byte-identical at every thread budget, so
// `cmp` of two dumps checks cross-thread determinism (the harness_matrix_*
// ctests), and of two trees' dumps checks that a change keeps the
// computation (scripts/harness_diff.sh). Digests depend on the GEMM kernel
// tier, so no golden dump is stored. The dumper uses only the public
// harness API; scripts/harness_diff.sh builds each tree's own dumper, and
// this one against trees that predate tools/.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.h"
#include "parallel/scheduler.h"

int main(int argc, char** argv) {
  using namespace fedl;
  const std::size_t budget = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1;
  const std::uint64_t only_seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 0;
  Scheduler::instance().configure(budget, 1);
  for (const bool async : {false, true})
    for (const char* comp : {"none", "quant8", "topk10"})
      for (const double drop : {0.0, 0.2})
        for (const std::uint64_t seed : {1ULL, 7ULL}) {
          if (only_seed != 0 && seed != only_seed) continue;
          harness::ScenarioConfig cfg;
          cfg.num_clients = 8;
          cfg.n_min = 2;
          cfg.budget = 110.0;
          cfg.max_epochs = 12;
          cfg.availability = 0.6;
          cfg.empty_decision_streak = 3;
          cfg.train_samples = 200;
          cfg.test_samples = 60;
          cfg.width_scale = 0.05;
          cfg.batch_cap = 8;
          cfg.eval_cap = 48;
          cfg.dane.sgd_steps = 2;
          cfg.seed = seed;
          cfg.compressor = comp;
          cfg.faults.dropout_prob = drop;
          cfg.async.enabled = async;
          cfg.async.buffer_k = 2;
          cfg.num_threads = budget == 1 ? 1 : 0;
          cfg.monitor = true;
          cfg.record_digests = true;
          cfg.defer_trace = true;
          harness::Experiment exp(cfg);
          for (const char* name : {"fedl", "fedavg", "fedcs", "powd"}) {
            auto strat = harness::make_strategy(name, cfg);
            const harness::RunResult r = exp.run(*strat);
            std::printf("== %s %s drop=%g seed=%llu %s\n",
                        async ? "event" : "lockstep", comp, drop,
                        static_cast<unsigned long long>(seed), name);
            std::printf("termination=%s epochs=%zu exhausted=%d\n",
                        r.termination_reason.c_str(), r.epochs_run,
                        r.budget_exhausted ? 1 : 0);
            std::printf("regret epochs=%zu online=%.17g offline=%.17g "
                        "fit=%.17g v_phi=%.17g v_h=%.17g v_h_max=%.17g\n",
                        r.regret.epochs(), r.regret.online_objective(),
                        r.regret.offline_objective(), r.regret.fit(),
                        r.regret.v_phi(), r.regret.v_h(),
                        r.regret.v_h_step_max());
            for (const auto& x : r.trace.records)
              std::printf("rec %zu %zu %.17g %.17g %.17g %.17g %.17g %zu %zu "
                          "%.17g\n",
                          x.epoch, x.round, x.sim_time_s, x.cost_spent,
                          x.train_loss, x.test_loss, x.test_accuracy,
                          x.num_selected, x.num_iterations, x.eta);
            for (const auto& a : r.anomalies)
              std::printf("anomaly %s %llu %.17g %.17g %s\n", a.monitor.c_str(),
                          static_cast<unsigned long long>(a.epoch), a.observed,
                          a.limit, a.detail.c_str());
            for (const auto d : r.epoch_digests)
              std::printf("digest %016llx\n",
                          static_cast<unsigned long long>(d));
            std::fputs(r.trace_jsonl.c_str(), stdout);
          }
        }
  return 0;
}

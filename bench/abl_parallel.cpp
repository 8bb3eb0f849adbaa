// Ablation A11: wall-clock speedup of the parallel per-client training
// fan-out. Runs identical 20-client full-participation epochs at several
// thread counts, reports per-epoch wall time and speedup over the serial
// path, and cross-checks that every thread count produced bit-identical
// global parameters (the engine's determinism guarantee).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "common/config.h"
#include "common/csv.h"
#include "common/logging.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/factory.h"
#include "obs/session.h"
#include "parallel/scheduler.h"

namespace {

struct EpochTiming {
  double seconds_per_epoch = 0.0;
  fedl::nn::ParamVec final_params;
};

EpochTiming time_epochs(std::size_t clients, std::size_t threads,
                        std::size_t epochs, std::size_t iterations,
                        std::size_t sgd_steps, double scale,
                        std::uint64_t seed) {
  using namespace fedl;
  auto data = data::make_synthetic_train_test(
      data::fmnist_like_spec(40 * clients, seed), 100);
  Rng prng(seed);
  auto part = data::partition_iid(data.train, clients, prng);
  sim::EnvironmentSpec es;
  es.num_clients = clients;
  es.device.seed = seed + 1;
  es.device.availability_prob = 1.0;
  es.channel.seed = seed + 2;
  es.online.seed = seed + 3;
  sim::EdgeEnvironment env(es, part);

  Rng mrng(seed + 4);
  nn::ModelSpec ms;
  ms.width_scale = scale;
  fl::EngineConfig ec;
  ec.batch_cap = 24;
  ec.eval_cap = 64;
  ec.dane.sgd_steps = sgd_steps;
  ec.num_threads = threads;
  ec.seed = seed + 5;
  fl::FlEngine engine(&data.train, &data.test, &env,
                      nn::make_fmnist_cnn(ms, mrng), ec);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto& ctx = env.advance_epoch();
    std::vector<std::size_t> sel;
    for (const auto& o : ctx.available) sel.push_back(o.id);
    engine.run_epoch(sel, iterations);
  }
  const auto stop = std::chrono::steady_clock::now();

  EpochTiming out;
  out.seconds_per_epoch =
      std::chrono::duration<double>(stop - start).count() /
      static_cast<double>(epochs);
  out.final_params = engine.global_params();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedl;
  try {
    Flags flags(argc, argv);
    obs::ObsSession session(flags, "warn");

    const std::size_t clients =
        static_cast<std::size_t>(flags.get_int("clients", 20));
    const std::size_t epochs =
        static_cast<std::size_t>(flags.get_int("epochs", 4));
    const std::size_t iterations =
        static_cast<std::size_t>(flags.get_int("iters", 2));
    const std::size_t sgd_steps =
        static_cast<std::size_t>(flags.get_int("sgd-steps", 3));
    const double scale = flags.get_double("scale", 0.15);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 7));
    const std::vector<double> thread_list =
        flags.get_double_list("threads", {1, 2, 4, 8});
    const std::size_t jobs =
        static_cast<std::size_t>(flags.get_int("jobs", 4));

    // One trial at a time; the thread budget must cover the largest
    // requested fan-out so the sweep measures K workers, not a clipped
    // grant.
    std::size_t max_threads = 1;
    for (double td : thread_list)
      max_threads = std::max(max_threads, static_cast<std::size_t>(td));
    Scheduler::instance().configure(
        static_cast<std::size_t>(
            flags.get_int("thread-budget",
                          static_cast<std::int64_t>(max_threads))),
        1);
    flags.require_all_read();

    std::cout << "== Table: epoch wall time vs num_threads (" << clients
              << " clients, " << iterations << " iters/epoch)\n";
    TextTable table({"threads", "s_per_epoch", "speedup", "bit_identical"});
    EpochTiming serial;
    for (double td : thread_list) {
      const std::size_t threads = static_cast<std::size_t>(td);
      const EpochTiming t = time_epochs(clients, threads, epochs, iterations,
                                        sgd_steps, scale, seed);
      const bool first = serial.final_params.empty();
      if (first) serial = t;
      const bool identical = t.final_params == serial.final_params;
      table.add_row({std::to_string(threads),
                     format_num(t.seconds_per_epoch),
                     format_num(serial.seconds_per_epoch /
                                t.seconds_per_epoch),
                     identical ? "yes" : "NO"});
      if (!identical) {
        std::cerr << "determinism violation at " << threads << " threads\n";
        return 1;
      }
    }
    table.write(std::cout);
    std::cout << "\n";

    // Trial-level cross-check: the same workload submitted as `--jobs`
    // concurrent scheduler trials (auto fan-out drawing from the shared
    // budget, stealing on) must reproduce the serial parameters
    // bit-for-bit.
    Scheduler::instance().configure(max_threads, jobs);
    std::vector<nn::ParamVec> per_trial(jobs);
    Scheduler::instance().run_trials(jobs, [&](std::size_t i) {
      per_trial[i] = time_epochs(clients, 0, epochs, iterations, sgd_steps,
                                 scale, seed)
                         .final_params;
    });
    for (std::size_t i = 0; i < jobs; ++i) {
      if (per_trial[i] != serial.final_params) {
        std::cerr << "determinism violation in concurrent trial " << i
                  << "\n";
        return 1;
      }
    }
    std::cout << "== Concurrent trials: " << jobs
              << " scheduler trials bit-identical to serial: yes\n\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
}

// Determinism tests for the parallel FL engine: run_epoch with any
// num_threads must produce bit-identical EpochOutcomes and global parameters
// to the serial path (the per-client fan-out only changes wall-clock, never
// numbers), including under mid-epoch faults and update compression.
//
// Tolerance rationale: these comparisons are exact (==, not near) on
// purpose, and stay valid across the SIMD GEMM kernels. Bit-identity holds
// because every float-ordering decision is independent of the thread count:
// the GEMM kernel is selected once per process (so serial and parallel runs
// use the same code path), its packing/k-walk order is fixed per shape, the
// conv dW reduction splits the batch into fixed-size blocks summed in block
// order on one thread, and the engine folds per-client results serially in
// client order. What is NOT bit-stable is cross-kernel agreement
// (avx2 vs portable vs gemm_naive differ by FMA/association rounding) —
// that contract is relative-error bounded and lives in gemm_parity_test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "nn/factory.h"
#include "obs/metrics.h"
#include "parallel/scheduler.h"

namespace fedl::fl {
namespace {

struct World {
  World(std::size_t clients, std::uint64_t seed, EngineConfig ec) {
    // The engine draws its fan-out workers from the process-wide Scheduler.
    // Pin the budget to the largest thread count these tests request so the
    // parallel paths run (and TSan sees them) even on a single-core box.
    Scheduler::instance().configure(8, 1);
    data = std::make_unique<data::TrainTest>(data::make_synthetic_train_test(
        data::fmnist_like_spec(400, seed), 100));
    Rng prng(seed);
    auto part = data::partition_iid(data->train, clients, prng);
    sim::EnvironmentSpec es;
    es.num_clients = clients;
    es.device.seed = seed + 1;
    es.device.availability_prob = 1.0;
    es.channel.seed = seed + 2;
    es.online.seed = seed + 3;
    env = std::make_unique<sim::EdgeEnvironment>(es, part);

    Rng mrng(seed + 4);
    nn::ModelSpec ms;
    ms.width_scale = 0.05;
    ec.batch_cap = 16;
    ec.eval_cap = 64;
    ec.seed = seed + 5;
    engine = std::make_unique<FlEngine>(&data->train, &data->test, env.get(),
                                        nn::make_fmnist_cnn(ms, mrng), ec);
  }

  std::unique_ptr<data::TrainTest> data;
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<FlEngine> engine;
};

struct Trajectory {
  std::vector<EpochOutcome> outcomes;
  nn::ParamVec final_params;
};

// Runs `epochs` full-participation epochs of `iters` DANE iterations.
Trajectory run_trajectory(std::size_t clients, std::uint64_t seed,
                          EngineConfig ec, std::size_t epochs,
                          std::size_t iters) {
  World w(clients, seed, ec);
  Trajectory t;
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto& ctx = w.env->advance_epoch();
    std::vector<std::size_t> sel;
    for (const auto& o : ctx.available) sel.push_back(o.id);
    t.outcomes.push_back(w.engine->run_epoch(sel, iters));
  }
  t.final_params = w.engine->global_params();
  return t;
}

void expect_identical(const Trajectory& a, const Trajectory& b,
                      std::size_t threads) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t e = 0; e < a.outcomes.size(); ++e) {
    const EpochOutcome& x = a.outcomes[e];
    const EpochOutcome& y = b.outcomes[e];
    SCOPED_TRACE("threads=" + std::to_string(threads) + " epoch=" +
                 std::to_string(e));
    EXPECT_EQ(x.selected, y.selected);
    EXPECT_EQ(x.num_iterations, y.num_iterations);
    EXPECT_EQ(x.latency_s, y.latency_s);
    EXPECT_EQ(x.cost, y.cost);
    EXPECT_EQ(x.eta_max, y.eta_max);
    EXPECT_EQ(x.client_eta, y.client_eta);
    EXPECT_EQ(x.client_loss_reduction, y.client_loss_reduction);
    EXPECT_EQ(x.client_latency_s, y.client_latency_s);
    EXPECT_EQ(x.client_completed_iters, y.client_completed_iters);
    EXPECT_EQ(x.train_loss_selected, y.train_loss_selected);
    EXPECT_EQ(x.train_loss_all, y.train_loss_all);
    EXPECT_EQ(x.test_loss, y.test_loss);
    EXPECT_EQ(x.test_accuracy, y.test_accuracy);
    EXPECT_EQ(x.num_dropped, y.num_dropped);
  }
  EXPECT_EQ(a.final_params, b.final_params);  // bit-identical weights
}

TEST(EngineParallel, GoldenTrajectoryMatchesSerialAtAnyThreadCount) {
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  ec.num_threads = 1;
  const Trajectory serial = run_trajectory(8, 211, ec, 3, 2);
  for (std::size_t threads : {2u, 4u, 8u}) {
    EngineConfig pc = ec;
    pc.num_threads = threads;
    expect_identical(serial, run_trajectory(8, 211, pc, 3, 2), threads);
  }
}

TEST(EngineParallel, FaultsInteractDeterministicallyWithParallelism) {
  // Fault draws happen on the calling thread before the fan-out, so dropouts
  // (and the partial aggregation they induce) are identical at any thread
  // count.
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  ec.faults.dropout_prob = 0.4;
  ec.num_threads = 1;
  const Trajectory serial = run_trajectory(6, 223, ec, 3, 4);
  std::size_t dropped = 0;
  for (const auto& out : serial.outcomes) dropped += out.num_dropped;
  ASSERT_GT(dropped, 0u) << "fixture must actually exercise dropouts";
  for (std::size_t threads : {2u, 4u, 8u}) {
    EngineConfig pc = ec;
    pc.num_threads = threads;
    expect_identical(serial, run_trajectory(6, 223, pc, 3, 4), threads);
  }
}

TEST(EngineParallel, CompressedUplinksStayDeterministic) {
  // Stochastic quantization draws from per-client RNG streams, so compressed
  // payloads are independent of processing order and concurrency.
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  ec.compressor = "quant8";
  ec.num_threads = 1;
  const Trajectory serial = run_trajectory(6, 227, ec, 2, 2);
  for (std::size_t threads : {2u, 8u}) {
    EngineConfig pc = ec;
    pc.num_threads = threads;
    expect_identical(serial, run_trajectory(6, 227, pc, 2, 2), threads);
  }
}

TEST(EngineParallel, CompletedIterationBookkeeping) {
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  ec.faults.dropout_prob = 0.5;
  ec.num_threads = 4;
  World w(6, 229, ec);
  const auto& ctx = w.env->advance_epoch();
  std::vector<std::size_t> sel;
  for (const auto& o : ctx.available) sel.push_back(o.id);
  const std::size_t iters = 4;
  const EpochOutcome out = w.engine->run_epoch(sel, iters);

  ASSERT_EQ(out.client_completed_iters.size(), sel.size());
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    EXPECT_LE(out.client_completed_iters[i], iters);
    if (out.client_completed_iters[i] < iters) ++dropped;
    // Zero completed iterations means no η observation was ever recorded.
    if (out.client_completed_iters[i] == 0) {
      EXPECT_EQ(out.client_eta[i], 0.0);
    }
  }
  EXPECT_EQ(dropped, out.num_dropped);
}

TEST(EngineParallel, SlotKeyedReplicaPoolCutsMemoryAtScale) {
  // The replica pool is keyed by fan-out chunk (< thread budget), not by
  // selected client, so peak replica memory at 256 selected clients must be
  // far below one full model clone per selected client. The
  // fl.replica_bytes gauge (set from Model::owned_bytes over the trimmed
  // pool) must come in at least 5x under that baseline.
  EngineConfig ec;
  ec.dane.sgd_steps = 1;
  ec.num_threads = 0;  // draw the fan-out from the scheduler budget (8)
  const std::size_t clients = 256;
  const std::uint64_t seed = 241;
  World w(clients, seed, ec);
  const auto& ctx = w.env->advance_epoch();
  std::vector<std::size_t> sel;
  for (const auto& o : ctx.available) sel.push_back(o.id);
  ASSERT_EQ(sel.size(), clients);
  w.engine->run_epoch(sel, 1);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const double replica_bytes = snap.gauges.at("fl.replica_bytes");
  const double replica_count = snap.gauges.at("fl.replicas");
  ASSERT_GT(replica_bytes, 0.0) << "parallel epoch must have used replicas";
  EXPECT_GE(replica_count, 1.0);
  EXPECT_LE(replica_count, 8.0) << "pool must be slot-keyed, not per client";

  // Baseline: the model the engine trains (same spec/seed as World), with
  // caches populated by one batch_cap-sized forward/backward — what each of
  // 256 per-client clones would hold at peak.
  Rng mrng(seed + 4);
  nn::ModelSpec ms;
  ms.width_scale = 0.05;
  nn::Model proto = nn::make_fmnist_cnn(ms, mrng);
  Rng brng(7);
  nn::Batch batch;
  batch.x = Tensor::uniform(Shape{16, 1, 28, 28}, -1.0f, 1.0f, brng);
  batch.y.resize(16);
  for (auto& y : batch.y)
    y = static_cast<std::uint8_t>(brng.uniform_int(0, 9));
  proto.forward_backward(batch);
  const double old_peak = static_cast<double>(proto.owned_bytes()) *
                          static_cast<double>(clients);
  EXPECT_LE(replica_bytes * 5.0, old_peak)
      << "replica pool holds " << replica_bytes << " bytes vs "
      << old_peak << " for per-client clones";
}

TEST(EngineParallel, CallingChunkTrainsOnEngineModel) {
  // Fan-out chunk 0 runs on the calling thread and trains on the engine's
  // own model, so the pool holds one replica per granted extra worker: at
  // most budget - 1 = 7 for a wide epoch, none for a one-job call.
  EngineConfig ec;
  ec.dane.sgd_steps = 1;
  ec.num_threads = 0;  // draw the fan-out from the scheduler budget (8)
  World w(16, 251, ec);
  const auto& ctx = w.env->advance_epoch();
  std::vector<std::size_t> sel;
  for (const auto& o : ctx.available) sel.push_back(o.id);
  ASSERT_EQ(sel.size(), 16u);
  w.engine->run_epoch(sel, 1);
  const auto replicas = [] {
    return obs::MetricsRegistry::global().snapshot().gauges.at("fl.replicas");
  };
  EXPECT_GE(replicas(), 1.0) << "a 16-client epoch must fan out";
  EXPECT_LE(replicas(), 7.0) << "chunk 0 must not hold a replica";

  std::vector<LocalTrainResult> results;
  w.engine->run_local_jobs({LocalTrainJob{sel[0], 2}}, &results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].completed_iters, 2u);
  EXPECT_EQ(replicas(), 0.0) << "a one-job call runs on the engine model";
}

TEST(EngineParallel, AccumulatedLossReductionGrowsWithIterations) {
  // The per-client reduction is accumulated across the epoch's DANE
  // iterations (not overwritten with the last iteration's marginal), so a
  // 3-iteration epoch must report at least the single-iteration reduction
  // for every client — both start from the same initial model.
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  const Trajectory one = run_trajectory(5, 233, ec, 1, 1);
  const Trajectory three = run_trajectory(5, 233, ec, 1, 3);
  const auto& r1 = one.outcomes[0].client_loss_reduction;
  const auto& r3 = three.outcomes[0].client_loss_reduction;
  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i)
    EXPECT_GE(r3[i], r1[i] - 1e-9) << "client " << i;
}

}  // namespace
}  // namespace fedl::fl

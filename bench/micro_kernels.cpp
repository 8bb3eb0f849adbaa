// A4: google-benchmark microbenchmarks for the hot kernels — GEMM, im2col
// convolution, the DANE local step, the intersection projection, and RDCS.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "parallel/scheduler.h"
#include "core/fedl_strategy.h"
#include "core/rounding.h"
#include "data/synthetic.h"
#include "fl/dane.h"
#include "nn/factory.h"
#include "solver/projection.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd_dispatch.h"

namespace {

using namespace fedl;

// Args: {n, threads}. threads == 1 pins the serial macro loop; larger
// values configure the Scheduler budget so the strip loop leases workers
// (still bit-identical output — see DESIGN.md §4). threads == 0 uses every
// hardware thread. Real time is the honest metric for the threaded rows.
void BM_GemmSquare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t threads = static_cast<std::size_t>(state.range(1));
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Scheduler::instance().configure(threads, 1);
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n * 2);
  state.SetLabel(std::string(gemm_kernel_name(active_gemm_kernel())) +
                 "/threads:" + std::to_string(threads));
  Scheduler::instance().configure(0, 1);
}
BENCHMARK(BM_GemmSquare)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({256, 8})
    ->Args({512, 8})
    ->Args({512, 0})
    ->UseRealTime();

// Same shape, each micro-kernel pinned explicitly: the deltas between
// /avx512, /avx2 and /portable are the SIMD dispatch wins in isolation.
bool kernel_runnable(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kAvx512: return cpu_supports_avx512();
    case GemmKernel::kAvx2Fma: return cpu_supports_avx2_fma();
    case GemmKernel::kPortable: return true;
  }
  return false;
}

void BM_GemmKernel(benchmark::State& state, GemmKernel kernel) {
  if (!kernel_runnable(kernel)) {
    state.SkipWithError("CPU lacks the requested SIMD tier");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  force_gemm_kernel(kernel);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  force_gemm_kernel(resolve_gemm_kernel(nullptr, cpu_supports_avx512(),
                                        cpu_supports_avx2_fma()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n * 2);
}
BENCHMARK_CAPTURE(BM_GemmKernel, avx512, GemmKernel::kAvx512)->Arg(256);
BENCHMARK_CAPTURE(BM_GemmKernel, avx2, GemmKernel::kAvx2Fma)->Arg(256);
BENCHMARK_CAPTURE(BM_GemmKernel, portable, GemmKernel::kPortable)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm_naive(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
               c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n * 2);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128);

void BM_Im2col(benchmark::State& state) {
  Conv2dGeometry g{32, 28, 28, 5, 5, 1, 2};
  std::vector<float> img(32 * 28 * 28, 1.0f);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  for (auto _ : state) {
    im2col(g, img.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_CnnForward(benchmark::State& state) {
  Rng rng(2);
  nn::ModelSpec spec;
  spec.width_scale = 0.25;
  nn::Model model = nn::make_fmnist_cnn(spec, rng);
  Tensor x = Tensor::uniform(Shape{8, 1, 28, 28}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor out = model.forward(x, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CnnForward);

// Full training step (forward + backward) over a batch — exercises the
// sample-block conv pipeline: per-block im2col and GEMMs, and the
// block-ordered deterministic weight-gradient reduction.
void BM_CnnTrainStep(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::ModelSpec spec;
  spec.width_scale = 0.25;
  nn::Model model = nn::make_fmnist_cnn(spec, rng);
  nn::Batch b;
  b.x = Tensor::uniform(Shape{batch, 1, 28, 28}, -1.0f, 1.0f, rng);
  b.y.resize(batch);
  for (auto& y : b.y) y = static_cast<std::uint8_t>(rng.uniform_int(0, 9));
  for (auto _ : state) {
    auto r = model.forward_backward(b);
    benchmark::DoNotOptimize(r.loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CnnTrainStep)->Arg(8)->Arg(32);

void BM_DaneLocalStep(benchmark::State& state) {
  Rng rng(3);
  nn::Model model = nn::make_mlp(64, 32, 10, 1e-3, rng);
  nn::Batch batch;
  batch.x = Tensor::uniform(Shape{16, 64}, -1.0f, 1.0f, rng);
  batch.y.resize(16);
  for (auto& y : batch.y)
    y = static_cast<std::uint8_t>(rng.uniform_int(0, 9));
  fl::LocalOracle oracle(&model, &batch);
  const nn::ParamVec w = model.params_flat();
  fl::DaneConfig cfg;
  cfg.sgd_steps = 5;
  for (auto _ : state) {
    auto upd = fl::dane_local_step(oracle, w, {}, cfg);
    benchmark::DoNotOptimize(upd.d.data());
  }
}
BENCHMARK(BM_DaneLocalStep);

// decide()'s projection onto box ∩ budget ∩ floor; w = 1000 is the
// perfbench select_1m workload's |E_t|. The budget alone binds at a cap of
// w; a tight cap (second argument 1: 1.0005 times the cost of the floor's
// 200 cheapest candidates) makes both bind.
void BM_ProjectIntersection(benchmark::State& state) {
  const std::size_t w = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  solver::DecisionSet set;
  set.cost.resize(w);
  for (auto& c : set.cost) c = rng.uniform(0.1, 12.0);
  set.cap = static_cast<double>(w);
  set.floor = 4.0;
  set.rho_max = 8.0;
  if (state.range(1) != 0) {
    std::vector<double> sorted = set.cost;
    std::sort(sorted.begin(), sorted.end());
    set.floor = 200.0;
    set.cap = 1.0005 * std::accumulate(sorted.begin(), sorted.begin() + 200, 0.0);
  }
  std::vector<double> y(w + 1);
  for (auto& v : y) v = rng.uniform(-0.5, 1.5);
  std::vector<double> x;
  for (auto _ : state) {
    x = y;
    set.project(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_ProjectIntersection)
    ->Args({20, 0})
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({1000, 1});

void BM_RdcsRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng gen(5);
  std::vector<double> fractions(n);
  for (auto& f : fractions) f = gen.uniform(0.05, 0.95);
  Rng rng(6);
  for (auto _ : state) {
    auto r = core::rdcs_round(fractions, rng);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_RdcsRound)->Arg(20)->Arg(100);

// Theorem 4: FedL's per-epoch decision is polynomial, O(T_C K²). One
// decide()+observe() cycle as a function of the available-client count K
// (K = 1000 as in the perfbench select_1m workload).
void BM_FedLDecide(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  core::FedLConfig fc;
  fc.learner.n_min = 5;
  core::FedLStrategy strat(k, fc);
  core::BudgetLedger budget(1e9);
  sim::EpochContext ctx;
  ctx.epoch = 1;
  for (std::size_t i = 0; i < k; ++i) {
    sim::ClientObservation o;
    o.id = i;
    o.cost = rng.uniform(0.1, 12.0);
    o.data_size = 20;
    o.tau_loc = rng.uniform(0.1, 3.0);
    o.tau_cm_est = rng.uniform(0.05, 1.0);
    ctx.available.push_back(o);
  }
  for (auto _ : state) {
    core::Decision dec = strat.decide(ctx, budget);
    fl::EpochOutcome out;
    out.selected = dec.selected;
    out.num_iterations = dec.num_iterations;
    out.client_eta.assign(dec.selected.size(), 0.5);
    out.client_loss_reduction.assign(dec.selected.size(), 0.1);
    out.client_completed_iters.assign(dec.selected.size(), dec.num_iterations);
    out.train_loss_all = 1.0;
    strat.observe(ctx, dec, out);
    benchmark::DoNotOptimize(dec.selected.data());
  }
}
BENCHMARK(BM_FedLDecide)->Arg(10)->Arg(50)->Arg(100)->Arg(1000);

// BM_FedLDecide decides over the same k clients on every iteration, so its
// pool lookups never leave the cache. This case times one decide()+observe()
// cycle at |E_t| = 1000 against a pool at select_1m's end state: before
// timing, 800 epochs offer 8·10⁵ distinct clients of an M = 10⁶ roster (in
// disjoint groups of 1000), and each timed epoch then offers a window of
// 1000 clients at a random place in the same shuffled roster, about 80% of
// them already holding records. Set-up takes a few seconds, so the
// iteration count is fixed.
void BM_FedLDecideFullPool(benchmark::State& state) {
  constexpr std::size_t kClients = 1000000;
  constexpr std::size_t kAvailable = 1000;
  constexpr std::size_t kWarmEpochs = 800;
  Rng rng(11);
  std::vector<std::size_t> roster(kClients);
  std::iota(roster.begin(), roster.end(), std::size_t{0});
  rng.shuffle(roster);
  core::FedLConfig fc;
  fc.learner.n_min = 8;
  core::FedLStrategy strat(kClients, fc);
  core::BudgetLedger budget(1e15);
  sim::EpochContext ctx;
  // Epoch ctx.epoch + 1 offers roster[first, first + kAvailable).
  auto next_epoch = [&](std::size_t first) {
    ++ctx.epoch;
    ctx.available.clear();
    for (std::size_t i = first; i < first + kAvailable; ++i) {
      sim::ClientObservation o;
      o.id = roster[i];
      o.cost = rng.uniform(0.1, 12.0);
      o.data_size = 20;
      o.tau_loc = rng.uniform(0.1, 3.0);
      o.tau_cm_est = rng.uniform(0.05, 1.0);
      ctx.available.push_back(o);
    }
    std::sort(ctx.available.begin(), ctx.available.end(),
              [](const sim::ClientObservation& a,
                 const sim::ClientObservation& b) { return a.id < b.id; });
  };
  auto decide_observe = [&] {
    core::Decision dec = strat.decide(ctx, budget);
    fl::EpochOutcome out;
    out.epoch = ctx.epoch;
    out.selected = dec.selected;
    out.num_iterations = dec.num_iterations;
    out.client_eta.assign(dec.selected.size(), 0.5);
    out.client_loss_reduction.assign(dec.selected.size(), 0.1);
    out.client_completed_iters.assign(dec.selected.size(), dec.num_iterations);
    out.train_loss_all = 1.0;
    strat.observe(ctx, dec, out);
    return dec.selected.size();
  };
  for (std::size_t e = 0; e < kWarmEpochs; ++e) {
    next_epoch(e * kAvailable);
    decide_observe();
  }
  const std::size_t warm = strat.learner().active_clients();
  for (auto _ : state) {
    state.PauseTiming();
    next_epoch(static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(kClients - kAvailable))));
    state.ResumeTiming();
    benchmark::DoNotOptimize(decide_observe());
  }
  state.counters["active_at_start"] = static_cast<double>(warm);
  state.counters["resident_mb"] =
      static_cast<double>(strat.learner().resident_bytes()) / (1 << 20);
}
BENCHMARK(BM_FedLDecideFullPool)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto ds = data::make_synthetic(data::fmnist_like_spec(200, 1));
    benchmark::DoNotOptimize(ds.size());
  }
}
BENCHMARK(BM_SyntheticGeneration);

}  // namespace

BENCHMARK_MAIN();

#include "solver/prox_solver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace fedl::solver {
namespace {

// At most kMaxIterations projected-gradient steps. Each starts at
// kInitialStep (or less, after a backtrack) and shrinks by kBacktrackFactor,
// at most kMaxBacktracks times, until f(candidate) ≤ f(x) + kArmijoC·∇f·d.
// The solve stops when a step moves x by less than kTolerance in squared
// norm.
constexpr std::size_t kMaxIterations = 120;
constexpr double kInitialStep = 1.0;
constexpr double kBacktrackFactor = 0.5;
constexpr double kArmijoC = 1e-4;
constexpr std::size_t kMaxBacktracks = 40;
constexpr double kTolerance = 1e-12;

// Solver telemetry: call volume and total inner iterations; the per-call
// iteration count lands in a histogram so convergence behaviour is visible
// without logging every solve.
const obs::Counter& solver_calls() {
  static const obs::Counter c("solver.calls");
  return c;
}
const obs::Counter& solver_iterations() {
  static const obs::Counter c("solver.iterations");
  return c;
}
const obs::Histogram& solver_iters_hist() {
  static const obs::Histogram h("solver.iters_per_call",
                                {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

struct SolveRecord {
  const ProxSolverResult& res;
  explicit SolveRecord(const ProxSolverResult& r) : res(r) {}
  ~SolveRecord() {
    solver_iterations().add(res.iterations);
    solver_iters_hist().observe(static_cast<double>(res.iterations));
  }
};

}  // namespace

ProxSolverResult minimize_projected(const DecisionSet& set,
                                    std::vector<double> x0,
                                    const Objective& objective) {
  FEDL_PROFILE_SCOPE("solver.minimize");
  solver_calls().add();
  ProxSolverResult res;
  SolveRecord record(res);  // flushes iteration telemetry on every exit path
  set.project(x0);
  res.x = std::move(x0);

  std::vector<double> grad(res.x.size());
  double value = objective(res.x, &grad);
  double step = kInitialStep;

  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    res.iterations = iter + 1;

    // Backtracking projected-gradient step: candidate = P(x − step·∇),
    // accept when the Armijo condition holds along the *projected* direction.
    bool accepted = false;
    std::vector<double> candidate;
    double cand_value = 0.0;
    double local_step = step;
    for (std::size_t bt = 0; bt < kMaxBacktracks; ++bt) {
      candidate = res.x;
      for (std::size_t i = 0; i < candidate.size(); ++i)
        candidate[i] -= local_step * grad[i];
      set.project(candidate);

      // Projected direction d = candidate − x; Armijo on g(x)·d.
      double gd = 0.0;
      double d_sq = 0.0;
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        const double d = candidate[i] - res.x[i];
        gd += grad[i] * d;
        d_sq += d * d;
      }
      if (d_sq < kTolerance) {
        // The projected gradient step no longer moves: stationary point.
        res.converged = true;
        res.objective = value;
        return res;
      }
      cand_value = objective(candidate, nullptr);
      if (cand_value <= value + kArmijoC * gd) {
        accepted = true;
        break;
      }
      local_step *= kBacktrackFactor;
    }
    if (!accepted) {
      // Could not decrease even with a tiny step — treat current point as
      // the (numerical) minimizer.
      res.converged = true;
      res.objective = value;
      return res;
    }

    double move_sq = 0.0;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      const double d = candidate[i] - res.x[i];
      move_sq += d * d;
    }
    res.x = std::move(candidate);
    value = objective(res.x, &grad);
    // Mild step recovery: successful steps let the step size grow back.
    step = std::min(kInitialStep, local_step * 2.0);
    if (move_sq < kTolerance) {
      res.converged = true;
      break;
    }
  }
  res.objective = value;
  return res;
}

}  // namespace fedl::solver

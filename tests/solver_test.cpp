// Tests for the convex solver substrate: closed-form projections, Dykstra's
// algorithm against brute-force projection, and the projected proximal
// solver against exhaustive grid search — validating the IPOPT substitution
// (DESIGN.md §5.3).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "solver/projection.h"
#include "solver/prox_solver.h"

namespace fedl::solver {
namespace {

TEST(ProjectBox, ClampsCoordinates) {
  std::vector<double> x = {-1.0, 0.5, 3.0};
  project_box({0, 0, 0}, {1, 1, 1}, x);
  EXPECT_EQ(x, (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(ProjectHalfspace, NoopInside) {
  Halfspace h{{1.0, 1.0}, 5.0};
  std::vector<double> x = {1.0, 2.0};
  project_halfspace(h, x);
  EXPECT_EQ(x, (std::vector<double>{1.0, 2.0}));
}

TEST(ProjectHalfspace, OrthogonalProjectionOutside) {
  // {x + y <= 0}; projecting (1,1) gives (0,0).
  Halfspace h{{1.0, 1.0}, 0.0};
  std::vector<double> x = {1.0, 1.0};
  project_halfspace(h, x);
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

bool l2_norm_zero(const Halfspace& h) {
  double s = 0;
  for (double a : h.a) s += a * a;
  return s < 1e-12;
}

TEST(ProjectHalfspace, ResultSatisfiesConstraintAndIsClosest) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Halfspace h{{rng.normal(), rng.normal(), rng.normal()}, rng.normal()};
    if (l2_norm_zero(h)) continue;
    std::vector<double> x = {rng.normal() * 3, rng.normal() * 3,
                             rng.normal() * 3};
    std::vector<double> p = x;
    project_halfspace(h, p);
    double ax = 0, ap = 0;
    for (int i = 0; i < 3; ++i) {
      ax += h.a[i] * x[i];
      ap += h.a[i] * p[i];
    }
    EXPECT_LE(ap, h.b + 1e-9);
    if (ax <= h.b) {
      EXPECT_EQ(p, x);  // inside: untouched
    }
  }
}

// Brute-force projection onto the feasible set by dense sampling + local
// refinement (2-D only; used as oracle).
std::vector<double> brute_force_project(const FeasibleSet& set,
                                        const std::vector<double>& x) {
  double best_d = 1e100;
  std::vector<double> best = {0, 0};
  const int grid = 400;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      std::vector<double> cand = {
          set.lo[0] + (set.hi[0] - set.lo[0]) * i / grid,
          set.lo[1] + (set.hi[1] - set.lo[1]) * j / grid};
      if (!set.contains(cand, 1e-9)) continue;
      const double d = (cand[0] - x[0]) * (cand[0] - x[0]) +
                       (cand[1] - x[1]) * (cand[1] - x[1]);
      if (d < best_d) {
        best_d = d;
        best = cand;
      }
    }
  }
  return best;
}

class IntersectionVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntersectionVsBruteForce, MatchesOracleIn2D) {
  Rng rng(GetParam());
  FeasibleSet set;
  set.lo = {0.0, 0.0};
  set.hi = {1.0, 1.0};
  // Random budget-like halfspace a·x <= b through the box.
  Halfspace h1{{rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)},
               rng.uniform(0.5, 2.0)};
  // Random minimum-sum halfspace: x0 + x1 >= m  (encoded negated).
  const double m = rng.uniform(0.1, 0.8);
  Halfspace h2{{-1.0, -1.0}, -m};
  set.halfspaces = {h1, h2};

  std::vector<double> x = {rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)};
  const auto oracle = brute_force_project(set, x);
  if (!set.contains(oracle, 1e-6)) return;  // empty-ish intersection: skip

  bool converged = false;
  const auto proj = project_intersection(set, x, {}, &converged);
  EXPECT_TRUE(converged);
  EXPECT_TRUE(set.contains(proj, 1e-5));
  // The projection must be at least as close to x as the best grid point
  // (grid resolution bounds how much closer the oracle can be).
  auto dist = [&](const std::vector<double>& p) {
    return std::hypot(p[0] - x[0], p[1] - x[1]);
  };
  EXPECT_LE(dist(proj), dist(oracle) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectionVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ProjectIntersection, AlreadyFeasibleIsFixedPoint) {
  FeasibleSet set;
  set.lo = {0, 0, 0};
  set.hi = {1, 1, 1};
  set.halfspaces = {Halfspace{{1, 1, 1}, 2.5}};
  std::vector<double> x = {0.2, 0.3, 0.4};
  const auto p = project_intersection(set, x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(p[i], x[i], 1e-9);
}

TEST(ProjectIntersection, HighDimensionalFeasibility) {
  Rng rng(99);
  const std::size_t n = 40;
  FeasibleSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  Halfspace budget;
  budget.a.resize(n);
  for (auto& a : budget.a) a = rng.uniform(0.1, 12.0);
  budget.b = 30.0;
  Halfspace minsum;
  minsum.a.assign(n, -1.0);
  minsum.b = -5.0;
  set.halfspaces = {budget, minsum};

  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 2.0);
  bool converged = false;
  const auto p = project_intersection(set, x, {}, &converged);
  EXPECT_TRUE(converged);
  EXPECT_TRUE(set.contains(p, 1e-6));
}

// --- prox solver ------------------------------------------------------------------

TEST(ProxSolver, QuadraticOverBoxHasClosedForm) {
  // min (x-2)^2 + (y+1)^2 over [0,1]^2 -> (1, 0).
  FeasibleSet set;
  set.lo = {0, 0};
  set.hi = {1, 1};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) {
      (*g) = {2 * (x[0] - 2), 2 * (x[1] + 1)};
    }
    return (x[0] - 2) * (x[0] - 2) + (x[1] + 1) * (x[1] + 1);
  };
  const auto res = minimize_projected(set, {0.5, 0.5}, obj);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], 0.0, 1e-5);
}

TEST(ProxSolver, LinearObjectiveHitsVertexUnderBudget) {
  // min -3x - y  s.t. x,y in [0,1], 2x + y <= 2  -> x=1, y=0... check:
  // at x=1: y <= 0 -> (1, 0) value -3; at (0.5,1): -2.5. So (1,0).
  FeasibleSet set;
  set.lo = {0, 0};
  set.hi = {1, 1};
  set.halfspaces = {Halfspace{{2, 1}, 2.0}};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) (*g) = {-3.0, -1.0};
    return -3 * x[0] - x[1];
  };
  const auto res = minimize_projected(set, {0.0, 0.0}, obj);
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 0.0, 1e-4);
}

TEST(ProxSolver, ResultBeatsRandomFeasiblePoints) {
  // Strongly convex objective with bilinear term (the structure of step (8)).
  Rng rng(7);
  const std::size_t n = 6;
  FeasibleSet set;
  set.lo.assign(n, 0.0);
  set.hi.assign(n, 1.0);
  set.lo[n - 1] = 1.0;
  set.hi[n - 1] = 5.0;
  Halfspace minsum;
  minsum.a.assign(n, -1.0);
  minsum.a[n - 1] = 0.0;
  minsum.b = -2.0;
  set.halfspaces = {minsum};

  std::vector<double> c(n);
  for (auto& v : c) v = rng.uniform(-1.0, 1.0);
  std::vector<double> anchor(n, 0.5);
  anchor[n - 1] = 2.0;
  auto obj = [&](const std::vector<double>& x, std::vector<double>* g) {
    double val = 0.0;
    // c·x + x_0*x_last (bilinear) + ||x-anchor||^2
    val += x[0] * x[n - 1];
    for (std::size_t i = 0; i < n; ++i) {
      val += c[i] * x[i] + (x[i] - anchor[i]) * (x[i] - anchor[i]);
    }
    if (g) {
      g->assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        (*g)[i] = c[i] + 2 * (x[i] - anchor[i]);
      (*g)[0] += x[n - 1];
      (*g)[n - 1] += x[0];
    }
    return val;
  };
  const auto res = minimize_projected(set, anchor, obj);
  ASSERT_TRUE(set.contains(res.x, 1e-6));

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> cand(n);
    for (std::size_t i = 0; i < n; ++i)
      cand[i] = rng.uniform(set.lo[i], set.hi[i]);
    cand = project_intersection(set, cand);
    if (!set.contains(cand, 1e-6)) continue;
    EXPECT_GE(obj(cand, nullptr), res.objective - 1e-6);
  }
}

TEST(LinearizedStepBuilder, GradientMatchesFiniteDifference) {
  const std::size_t k = 3;
  LinearizedStep step;
  step.grad_f = {0.5, -0.2, 0.7, 0.3};
  step.anchor = {0.4, 0.6, 0.1, 2.0};
  step.beta = 0.25;
  step.mu = {1.5, 0.7, 0.0, 0.2};
  // h with bilinear structure mimicking h^0/h^k.
  step.h = [k](const std::vector<double>& x) {
    std::vector<double> h(k + 1);
    const double rho = x[k];
    h[0] = 1.0 - 0.3 * (x[0] + x[1] + x[2]) * rho;
    for (std::size_t i = 0; i < k; ++i)
      h[i + 1] = 0.5 * x[i] * rho - rho + 1.0;
    return h;
  };
  step.h_grad_mu = [k](const std::vector<double>& x,
                       const std::vector<double>& mu) {
    std::vector<double> g(k + 1, 0.0);
    const double rho = x[k];
    for (std::size_t i = 0; i < k; ++i) {
      g[i] = -mu[0] * 0.3 * rho + mu[i + 1] * 0.5 * rho;
      g[k] += mu[i + 1] * (0.5 * x[i] - 1.0);
    }
    g[k] += -mu[0] * 0.3 * (x[0] + x[1] + x[2]);
    return g;
  };

  const auto obj = step.make_objective();
  std::vector<double> x = {0.3, 0.8, 0.2, 1.7};
  std::vector<double> grad;
  obj(x, &grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i <= k; ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (obj(xp, nullptr) - obj(xm, nullptr)) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-5) << "dim " << i;
  }
}

TEST(ProxSolver, InfeasibleStartIsProjectedFirst) {
  FeasibleSet set;
  set.lo = {0, 0};
  set.hi = {1, 1};
  auto obj = [](const std::vector<double>& /*x*/, std::vector<double>* g) {
    if (g) (*g) = {0.0, 0.0};
    return 0.0;
  };
  const auto res = minimize_projected(set, {5.0, -3.0}, obj);
  EXPECT_TRUE(set.contains(res.x, 1e-9));
}

}  // namespace
}  // namespace fedl::solver

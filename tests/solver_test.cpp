// Tests for the convex solver substrate: decide()'s exact projection onto
// box ∩ budget ∩ floor (breakpoint search, and regula falsi when both
// constraints bind) against brute-force projection and against its KKT
// conditions, and the projected proximal solver against closed forms and
// random feasible points — validating the IPOPT substitution (DESIGN.md
// §5.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "solver/projection.h"
#include "solver/prox_solver.h"

namespace fedl::solver {
namespace {

// Whether x = [x̃, ρ] lies in the set, within tol on every constraint.
bool contains(const DecisionSet& set, const std::vector<double>& x,
              double tol) {
  const std::size_t w = set.cost.size();
  double spend = 0.0, count = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    if (x[i] < -tol || x[i] > 1.0 + tol) return false;
    spend += set.cost[i] * x[i];
    count += x[i];
  }
  return x[w] >= 1.0 - tol && x[w] <= set.rho_max + tol &&
         spend <= set.cap + tol && count >= set.floor - tol;
}

std::vector<double> projected(const DecisionSet& set, std::vector<double> x) {
  set.project(x);
  return x;
}

TEST(ProjectBox, ClampsCoordinates) {
  // With a slack cap and no floor the set is the box: a coordinate clamp,
  // ρ included.
  const DecisionSet set{{1.0, 1.0, 1.0}, 1e6, 0.0, 4.0};
  EXPECT_EQ(projected(set, {-1.0, 0.5, 3.0, 9.0}),
            (std::vector<double>{0.0, 0.5, 1.0, 4.0}));
  EXPECT_EQ(projected(set, {0.25, 2.0, -3.0, 0.5}),
            (std::vector<double>{0.25, 1.0, 0.0, 1.0}));
}

// Brute-force projection of the two selection coordinates by dense
// sampling (used as oracle); ρ is a clamp.
std::vector<double> brute_force_project(const DecisionSet& set,
                                        const std::vector<double>& x) {
  double best_d = 1e100;
  std::vector<double> best = {0, 0, std::clamp(x[2], 1.0, set.rho_max)};
  const int grid = 400;
  for (int i = 0; i <= grid; ++i) {
    for (int j = 0; j <= grid; ++j) {
      std::vector<double> cand = {static_cast<double>(i) / grid,
                                  static_cast<double>(j) / grid, best[2]};
      if (!contains(set, cand, 1e-9)) continue;
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
  // A random budget c·x ≤ cap through the box, and a floor x0 + x1 ≥ m.
  DecisionSet set;
  set.cost = {rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)};
  set.cap = rng.uniform(0.5, 2.0);
  set.floor = rng.uniform(0.1, 0.8);
  set.rho_max = 3.0;

  std::vector<double> x = {rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5),
                           rng.uniform(0.0, 4.0)};
  if (std::min(set.cost[0], set.cost[1]) * set.floor > set.cap) {
    EXPECT_THROW(set.project(x), CheckError);  // the floor is unaffordable
    return;
  }
  const auto oracle = brute_force_project(set, x);
  const auto proj = projected(set, x);
  EXPECT_TRUE(contains(set, proj, 1e-12));
  EXPECT_EQ(proj[2], oracle[2]);
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
  const DecisionSet set{{1.0, 1.0, 1.0}, 2.5, 0.5, 4.0};
  const std::vector<double> x = {0.2, 0.3, 0.4, 2.0};
  EXPECT_EQ(projected(set, x), x);
}

TEST(ProjectIntersection, HighDimensionalFeasibility) {
  Rng rng(99);
  const std::size_t w = 40;
  DecisionSet set;
  set.cost.resize(w);
  for (auto& c : set.cost) c = rng.uniform(0.1, 12.0);
  set.cap = 30.0;
  set.floor = 5.0;
  set.rho_max = 8.0;
  std::vector<double> x(w + 1);
  for (auto& v : x) v = rng.uniform(-1.0, 2.0);
  EXPECT_TRUE(contains(set, projected(set, x), 1e-9));
}

// --- KKT conditions of the projection ---------------------------------------
//
// x is the projection of y exactly when multipliers λ (budget) and ν
// (floor) exist with
//   x̃ = clamp(ỹ − λc + ν, 0, 1),  ρ = clamp(y_ρ, 1, ρ_max),  λ, ν ≥ 0,
//   λ·(c·x̃ − cap) = 0,  ν·(n − Σx̃) = 0,
// and x feasible. On a free coordinate (0 < x_k < 1) the first line reads
// y_k − x_k = λc_k − ν, so the multipliers are recovered there by least
// squares; a constraint more than kSlack from binding gets multiplier 0.
// Every condition must hold within kKktTarget.
constexpr double kKktTarget = 1e-9;
// A constraint this far from binding must have multiplier 0.
constexpr double kSlack = 1e-7;

DecisionSet decide_shaped_set(const std::vector<double>& cost, double cap,
                              double n) {
  return DecisionSet{cost, cap, n, 8.0};
}

struct Kkt {
  double residual = 0.0;  // max violation over every condition above
  double lambda = 0.0;    // budget multiplier
  double nu = 0.0;        // floor multiplier
  std::size_t free = 0;   // selection coordinates strictly inside [0, 1]
};

Kkt check_kkt(const DecisionSet& set, const std::vector<double>& y,
              const std::vector<double>& x) {
  const std::size_t w = set.cost.size();
  const std::vector<double>& c = set.cost;
  double spend = 0.0, count = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    spend += c[i] * x[i];
    count += x[i];
  }
  const bool budget_active = spend >= set.cap - kSlack;
  const bool floor_active = count <= set.floor + kSlack;

  // Normal equations of min Σ_free (r_i − λc_i + ν)², r = y − x.
  Kkt k;
  double s00 = 0.0, s01 = 0.0, s11 = 0.0, r0 = 0.0, r1 = 0.0;
  for (std::size_t i = 0; i < w; ++i) {
    if (x[i] <= 0.0 || x[i] >= 1.0) continue;
    ++k.free;
    const double r = y[i] - x[i];
    s00 += c[i] * c[i];
    s01 -= c[i];
    s11 += 1.0;
    r0 += r * c[i];
    r1 -= r;
  }
  const double det = s00 * s11 - s01 * s01;
  if (budget_active && floor_active && det > 1e-12 * s00 * s11) {
    k.lambda = (r0 * s11 - r1 * s01) / det;
    k.nu = (r1 * s00 - r0 * s01) / det;
  } else if (budget_active && floor_active) {
    // Equal costs c̄ on the free coordinates: only λ + κν (κ = −1/c̄) is
    // determined there; split it into its non-negative part.
    const double combined = r0 / s00;
    const double kappa = s01 / s00;
    if (combined >= 0.0) k.lambda = combined;
    else k.nu = combined / kappa;
  } else if (budget_active && s00 > 0.0) {
    k.lambda = r0 / s00;
  } else if (floor_active && s11 > 0.0) {
    k.nu = r1 / s11;
  }

  auto worse = [&](double v) { k.residual = std::max(k.residual, v); };
  worse(spend - set.cap);  // primal feasibility
  worse(set.floor - count);
  worse(-k.lambda);  // dual feasibility
  worse(-k.nu);
  worse(std::abs(k.lambda * (spend - set.cap)));  // complementary slackness
  worse(std::abs(k.nu * (set.floor - count)));
  for (std::size_t i = 0; i < w; ++i)  // stationarity and the box
    worse(std::abs(x[i] - std::clamp(y[i] - k.lambda * c[i] + k.nu, 0.0, 1.0)));
  worse(std::abs(x[w] - std::clamp(y[w], 1.0, set.rho_max)));
  return k;
}

// Random decide()-shaped instances: each seed draws the costs, the point
// (shifted by up to ±1) and the floor n ≤ 0.4·w, and a cap between lo and hi
// times the cost of the n cheapest clients. Every instance must meet
// kKktTarget.
void expect_random_instances_meet_kkt(std::size_t w, std::uint64_t instances,
                                      double lo, double hi) {
  for (std::uint64_t seed = 1; seed <= instances; ++seed) {
    Rng rng(seed * 977 + w);
    std::vector<double> cost(w);
    for (auto& c : cost) c = rng.uniform(0.1, 12.0);
    const double n = std::floor(rng.uniform(1.0, 0.4 * static_cast<double>(w)));
    std::vector<double> sorted = cost;
    std::sort(sorted.begin(), sorted.end());
    double cheapest_n = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
      cheapest_n += sorted[i];
    const double cap = cheapest_n * rng.uniform(lo, hi);
    const DecisionSet set = decide_shaped_set(cost, cap, n);
    std::vector<double> y(w + 1);
    const double shift = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < w; ++i) y[i] = shift + rng.uniform(-0.5, 1.5);
    y[w] = rng.uniform(0.0, 10.0);

    const Kkt k = check_kkt(set, y, projected(set, y));
    ASSERT_GT(k.free, 0u) << "seed " << seed;
    EXPECT_LE(k.residual, kKktTarget) << "seed " << seed;
  }
}

// 2,000 instances at w = 50 and 200 at w = 1000, with a cap 1–4 times the
// floor's cheapest cost: the budget binds in nearly all of them, and the
// floor too in about half.
class ProjectionKkt : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProjectionKkt, RandomInstancesMeetKkt) {
  const std::size_t w = GetParam();
  expect_random_instances_meet_kkt(w, w == 50 ? 2000 : 200, 1.0, 4.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, ProjectionKkt,
                         ::testing::Values(std::size_t{50}, std::size_t{1000}));

// A cap 1–1.001 times the floor's cheapest cost leaves a thin set: both
// constraints bind, with large multipliers.
TEST(ProjectionKktTightCap, RandomInstancesMeetKkt) {
  expect_random_instances_meet_kkt(50, 500, 1.0, 1.001);
}

// Dyadic instance data: every sum below is exact in double, so a constraint
// can bind exactly at the box projection.
std::vector<double> dyadic(Rng& rng, std::size_t w, double lo, double hi) {
  std::vector<double> v(w);
  for (auto& x : v) x = std::round(rng.uniform(lo, hi) * 16.0) / 16.0;
  return v;
}

TEST(ProjectionKktDegenerate, EqualCosts) {
  // The budget is a multiple of Σx̃.
  Rng rng(11);
  const std::size_t w = 60;
  const std::vector<double> cost(w, 1.5);
  for (const double cap : {30.0, 45.0}) {  // Σx̃ ≤ 20 (= the floor), 30
    const DecisionSet set = decide_shaped_set(cost, cap, 20.0);
    const std::vector<double> y = dyadic(rng, w + 1, -0.5, 1.5);
    const Kkt k = check_kkt(set, y, projected(set, y));
    ASSERT_GT(k.free, 0u);
    EXPECT_LE(k.residual, kKktTarget) << "cap " << cap;
  }
}

TEST(ProjectionKktDegenerate, CapBindsExactlyAtTheBoxProjection) {
  // c·clamp(y) = cap exactly: the budget binds with λ = 0, so the
  // projection is the box clamp.
  Rng rng(12);
  const std::size_t w = 50;
  const std::vector<double> cost = dyadic(rng, w, 0.25, 12.0);
  const std::vector<double> y = dyadic(rng, w + 1, -0.5, 1.5);
  double cap = 0.0;
  for (std::size_t i = 0; i < w; ++i) cap += cost[i] * std::clamp(y[i], 0.0, 1.0);
  const DecisionSet set = decide_shaped_set(cost, cap, 3.0);
  const auto x = projected(set, y);
  const Kkt k = check_kkt(set, y, x);
  ASSERT_GT(k.free, 0u);
  EXPECT_LE(k.residual, kKktTarget);
  EXPECT_LE(std::abs(k.lambda), kKktTarget);
  for (std::size_t i = 0; i < w; ++i)
    EXPECT_EQ(x[i], std::clamp(y[i], 0.0, 1.0)) << i;
}

TEST(ProjectionKktDegenerate, FloorBindsExactlyAtTheBoxProjection) {
  // Σclamp(y) = n exactly: the floor binds with ν = 0.
  Rng rng(13);
  const std::size_t w = 50;
  const std::vector<double> cost = dyadic(rng, w, 0.25, 12.0);
  const std::vector<double> y = dyadic(rng, w + 1, -0.5, 1.5);
  double n = 0.0;
  for (std::size_t i = 0; i < w; ++i) n += std::clamp(y[i], 0.0, 1.0);
  const DecisionSet set = decide_shaped_set(cost, 1e6, n);
  const auto x = projected(set, y);
  const Kkt k = check_kkt(set, y, x);
  ASSERT_GT(k.free, 0u);
  EXPECT_LE(k.residual, kKktTarget);
  EXPECT_LE(std::abs(k.nu), kKktTarget);
  for (std::size_t i = 0; i < w; ++i)
    EXPECT_EQ(x[i], std::clamp(y[i], 0.0, 1.0)) << i;
}

TEST(ProjectionKktDegenerate, EmptyIntersectionThrows) {
  // The n cheapest clients already cost more than the cap.
  Rng rng(14);
  const std::size_t w = 50;
  std::vector<double> cost(w);
  for (auto& c : cost) c = rng.uniform(1.0, 12.0);
  std::vector<double> y(w + 1);
  for (auto& v : y) v = rng.uniform(-0.5, 1.5);
  std::vector<double> x = y;
  EXPECT_THROW(decide_shaped_set(cost, 4.0, 5.0).project(x), CheckError);
  // A floor above the width cannot be met at any cap.
  x = y;
  EXPECT_THROW(decide_shaped_set(cost, 1e6, 51.0).project(x), CheckError);
}

// --- prox solver ------------------------------------------------------------------

TEST(ProxSolver, QuadraticOverBoxHasClosedForm) {
  // min (x−2)² + (ρ−5)² over x ∈ [0,1], ρ ∈ [1,3] -> (1, 3).
  const DecisionSet set{{1.0}, 10.0, 0.0, 3.0};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) (*g) = {2 * (x[0] - 2), 2 * (x[1] - 5)};
    return (x[0] - 2) * (x[0] - 2) + (x[1] - 5) * (x[1] - 5);
  };
  const auto res = minimize_projected(set, {0.5, 2.0}, obj);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], 3.0, 1e-5);
}

TEST(ProxSolver, LinearObjectiveHitsVertexUnderBudget) {
  // min −3x − y + ρ  s.t. x, y ∈ [0,1], 2x + y ≤ 2, ρ ∈ [1,4]: at x = 1,
  // y ≤ 0 gives −3 + ρ; at (0.5, 1), −2.5 + ρ. So (1, 0, 1).
  const DecisionSet set{{2.0, 1.0}, 2.0, 0.0, 4.0};
  auto obj = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g) (*g) = {-3.0, -1.0, 1.0};
    return -3 * x[0] - x[1] + x[2];
  };
  const auto res = minimize_projected(set, {0.0, 0.0, 2.0}, obj);
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 0.0, 1e-4);
  EXPECT_NEAR(res.x[2], 1.0, 1e-4);
}

TEST(ProxSolver, ResultBeatsRandomFeasiblePoints) {
  // Strongly convex objective with bilinear term (the structure of step (8)).
  Rng rng(7);
  const std::size_t n = 6;  // five selection coordinates and ρ ∈ [1, 5]
  DecisionSet set;
  set.cost.resize(n - 1);
  for (auto& c : set.cost) c = rng.uniform(0.5, 1.5);
  set.cap = 3.0;
  set.floor = 2.0;
  set.rho_max = 5.0;

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
  ASSERT_TRUE(contains(set, res.x, 1e-9));

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> cand(n);
    for (std::size_t i = 0; i + 1 < n; ++i) cand[i] = rng.uniform(0.0, 1.0);
    cand[n - 1] = rng.uniform(1.0, set.rho_max);
    set.project(cand);
    ASSERT_TRUE(contains(set, cand, 1e-9));
    EXPECT_GE(obj(cand, nullptr), res.objective - 1e-6);
  }
}

TEST(ProxSolver, InfeasibleStartIsProjectedFirst) {
  const DecisionSet set{{1.0, 1.0}, 1.5, 0.5, 2.0};
  auto obj = [](const std::vector<double>& /*x*/, std::vector<double>* g) {
    if (g) (*g) = {0.0, 0.0, 0.0};
    return 0.0;
  };
  const auto res = minimize_projected(set, {5.0, -3.0, 9.0}, obj);
  EXPECT_TRUE(contains(set, res.x, 1e-9));
}

}  // namespace
}  // namespace fedl::solver

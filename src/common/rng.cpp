#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace fedl {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the 256-bit state from SplitMix64 as recommended by the authors.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split() {
  // Derive a child seed from the current stream; advancing the parent keeps
  // successive children decorrelated.
  const std::uint64_t child_seed = (*this)() ^ 0xa0761d6478bd642fULL;
  return Rng(child_seed);
}

double Rng::uniform() {
  // 53-bit mantissa trick: uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  FEDL_CHECK_LE(lo, hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FEDL_CHECK_LE(lo, hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t threshold = -range % range;
    while (l < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

void Rng::skip_normals(std::size_t count) {
  if (count > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --count;
  }
  // Two raw outputs per Box–Muller pair; an odd count computes its last
  // pair and keeps the second value cached, as normal() does.
  for (std::size_t i = 0; i < count / 2 * 2; ++i) (*this)();
  if (count % 2 == 1) normal();
}

bool Rng::bernoulli(double p) {
  FEDL_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  return uniform() < p;
}

std::int64_t Rng::poisson(double lambda) {
  FEDL_CHECK_GE(lambda, 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's method.
    const double limit = std::exp(-lambda);
    double prod = uniform();
    std::int64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction for large lambda.
  double draw = normal(lambda, std::sqrt(lambda));
  return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
}

double Rng::exponential(double lambda) {
  FEDL_CHECK_GT(lambda, 0.0);
  return -std::log(1.0 - uniform()) / lambda;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FEDL_CHECK_LE(k, n);
  // Floyd's algorithm would avoid the O(n) init, but n here is the number of
  // clients/samples (small); a partial Fisher–Yates is simpler and exact.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  FEDL_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  FEDL_CHECK_GT(total, 0.0) << "all categorical weights are non-positive";
  double u = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0.0 ? weights[i] : 0.0);
    if (u < acc) return i;
  }
  return weights.size() - 1;  // numeric fallthrough
}

double Rng::gamma(double shape) {
  FEDL_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia–Tsang augmentation).
    double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v;
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  FEDL_CHECK_GT(k, 0u);
  std::vector<double> draws(k);
  double total = 0.0;
  for (auto& d : draws) {
    d = gamma(alpha);
    total += d;
  }
  if (total <= 0.0) {
    // Degenerate draws (possible for tiny alpha): fall back to uniform.
    for (auto& d : draws) d = 1.0 / static_cast<double>(k);
    return draws;
  }
  for (auto& d : draws) d /= total;
  return draws;
}

}  // namespace fedl

// Deterministic pseudo-random generation for the whole framework.
//
// Every stochastic component (dataset synthesis, client availability, channel
// fading, SGD minibatching, dependent rounding) takes an explicit Rng so that
// experiments are reproducible from a single seed, and sub-streams can be
// forked without correlation (split() uses SplitMix64 on the state, the
// standard technique for xoshiro-family generators).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace fedl {

// xoshiro256** by Blackman & Vigna — fast, high-quality, 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xfed1fed1fed1fed1ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  // Fork an independent stream; the parent advances so successive splits
  // differ. Safe for handing one stream per client/thread.
  Rng split();

  // --- scalar distributions -------------------------------------------------
  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box–Muller (cached second value).
  double normal();
  double normal(double mean, double stddev);
  // Advances the stream exactly as `count` normal() calls would: a cached
  // second value is used up first, each remaining pair discards its two
  // raw outputs (Box–Muller rejects nothing), and only a trailing odd pair
  // is computed, so that its cached value survives. Lets a serial pass
  // hand each sample its own stream position (data/synthetic.cpp).
  void skip_normals(std::size_t count);
  // Bernoulli with success probability p.
  bool bernoulli(double p);
  // Poisson with rate lambda (Knuth for small lambda, normal approx above 64).
  std::int64_t poisson(double lambda);
  // Exponential with rate lambda.
  double exponential(double lambda);

  // --- sampling utilities ----------------------------------------------------
  // In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // Draw an index from a discrete distribution proportional to weights
  // (weights need not be normalized; negatives are clamped to zero).
  std::size_t categorical(const std::vector<double>& weights);

  // Dirichlet(alpha, ..., alpha) over k categories, via Gamma(alpha, 1)
  // draws (Marsaglia–Tsang).
  std::vector<double> dirichlet(double alpha, std::size_t k);

  // Gamma(shape, scale=1) draw.
  double gamma(double shape);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fedl

// Unit tests for the common substrate: RNG, stats, CSV, flags, math utils,
// error checking.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/config.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/stats.h"

namespace fedl {
namespace {

// --- error ------------------------------------------------------------------

TEST(Error, CheckPassesOnTrue) {
  EXPECT_NO_THROW(FEDL_CHECK(1 + 1 == 2) << "unused");
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    FEDL_CHECK(false) << "ctx " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(Error, ComparisonMacrosIncludeOperands) {
  try {
    FEDL_CHECK_EQ(3, 4) << "mismatch";
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lhs=3"), std::string::npos);
    EXPECT_NE(msg.find("rhs=4"), std::string::npos);
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(7);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  EXPECT_NE(c1(), c2());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversBoundsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStat s;
  for (int i = 0; i < 40000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, SkipNormalsMatchesDraws) {
  // Counts on both sides of a Box–Muller pair and of one 28×28 image, from
  // a fresh stream and from one that holds a cached second value.
  for (const bool cached : {false, true}) {
    for (const std::size_t count : {0, 1, 2, 3, 784, 785}) {
      Rng drawn(23);
      Rng skipped(23);
      if (cached) {
        drawn.normal();
        skipped.normal();
      }
      for (std::size_t i = 0; i < count; ++i) drawn.normal();
      skipped.skip_normals(count);
      for (int k = 0; k < 3; ++k)
        EXPECT_EQ(skipped.normal(), drawn.normal())
            << "cached=" << cached << " count=" << count << " normal " << k;
      for (int k = 0; k < 3; ++k)
        EXPECT_EQ(skipped(), drawn())
            << "cached=" << cached << " count=" << count << " raw " << k;
    }
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, PoissonMeanSmallLambda) {
  Rng rng(29);
  RunningStat s;
  for (int i = 0; i < 20000; ++i)
    s.add(static_cast<double>(rng.poisson(3.5)));
  EXPECT_NEAR(s.mean(), 3.5, 0.1);
  EXPECT_NEAR(s.variance(), 3.5, 0.3);
}

TEST(Rng, PoissonMeanLargeLambdaUsesNormalApprox) {
  Rng rng(31);
  RunningStat s;
  for (int i = 0; i < 20000; ++i)
    s.add(static_cast<double>(rng.poisson(200.0)));
  EXPECT_NEAR(s.mean(), 200.0, 1.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(37);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(41);
  RunningStat s;
  for (int i = 0; i < 40000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  auto s = rng.sample_without_replacement(20, 10);
  ASSERT_EQ(s.size(), 10u);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_NE(s[i - 1], s[i]);
  for (std::size_t v : s) EXPECT_LT(v, 20u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(47);
  auto s = rng.sample_without_replacement(5, 5);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(53);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalAllNonPositiveThrows) {
  Rng rng(59);
  std::vector<double> w = {0.0, -1.0};
  EXPECT_THROW(rng.categorical(w), CheckError);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(61);
  for (double alpha : {0.1, 1.0, 10.0}) {
    auto d = rng.dirichlet(alpha, 7);
    double sum = 0.0;
    for (double v : d) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, GammaMeanEqualsShape) {
  Rng rng(67);
  for (double shape : {0.5, 2.0, 9.0}) {
    RunningStat s;
    for (int i = 0; i < 20000; ++i) s.add(rng.gamma(shape));
    EXPECT_NEAR(s.mean(), shape, 0.08 * shape + 0.03);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(71);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// --- stats ---------------------------------------------------------------------

TEST(RunningStat, MatchesNaiveComputation) {
  const std::vector<double> xs = {1.0, 2.0, -3.0, 4.5, 0.25};
  RunningStat s;
  for (double x : xs) s.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.max(), 4.5);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(RunningStat, MergeEqualsCombinedStream) {
  Rng rng(73);
  RunningStat a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Ema, ConvergesToConstantInput) {
  Ema e(0.5);
  for (int i = 0; i < 40; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(Ema, FirstValueInitializes) {
  Ema e(0.1);
  EXPECT_FALSE(e.initialized());
  e.add(7.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
}

TEST(Ema, RejectsBadAlpha) {
  EXPECT_THROW(Ema(0.0), CheckError);
  EXPECT_THROW(Ema(1.5), CheckError);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 73.0), 42.0);
}

TEST(LogLogSlope, RecoversPowerLaw) {
  std::vector<double> x, y;
  for (double t = 1; t <= 64; t *= 2) {
    x.push_back(t);
    y.push_back(3.0 * std::pow(t, 0.66));
  }
  EXPECT_NEAR(loglog_slope(x, y), 0.66, 1e-9);
}

TEST(LogLogSlope, SkipsNonPositivePoints) {
  std::vector<double> x = {0.0, 1, 2, 4};
  std::vector<double> y = {5.0, 1, 2, 4};
  EXPECT_NEAR(loglog_slope(x, y), 1.0, 1e-9);
}

// --- csv ---------------------------------------------------------------------

TEST(CsvTable, WritesHeaderAndRows) {
  CsvTable t;
  t.add_column("a");
  t.add_column("b");
  t.append_row({1.0, 2.5});
  t.append_row({3.0, 4.0});
  std::ostringstream os;
  t.write(os);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n3,4\n");
}

TEST(CsvTable, RaggedColumnsThrowOnWrite) {
  CsvTable t;
  const auto a = t.add_column("a");
  t.add_column("b");
  t.append(a, 1.0);
  std::ostringstream os;
  EXPECT_THROW(t.write(os), CheckError);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"alg", "val"});
  t.add_row({"FedL", "1"});
  t.add_row({"FedAvg", "22"});
  std::ostringstream os;
  t.write(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| FedL   "), std::string::npos);
  EXPECT_NE(s.find("| FedAvg "), std::string::npos);
}

TEST(FormatNum, CompactOutput) {
  EXPECT_EQ(format_num(3.0), "3");
  EXPECT_EQ(format_num(3.14159), "3.142");
  EXPECT_EQ(format_num(-2.0), "-2");
  EXPECT_EQ(format_num(std::nan("")), "nan");
}

// --- flags -------------------------------------------------------------------

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=2.5", "--name", "hello", "--flag"};
  Flags f(5, argv);
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), 2.5);
  EXPECT_EQ(f.get_string("name", ""), "hello");
  EXPECT_TRUE(f.get_bool("flag", false));
  EXPECT_EQ(f.get_int("missing", 7), 7);
}

TEST(Flags, ListParsing) {
  const char* argv[] = {"prog", "--budgets=100,200,400"};
  Flags f(2, argv);
  const auto v = f.get_double_list("budgets", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 100);
  EXPECT_DOUBLE_EQ(v[2], 400);
}

TEST(Flags, BadNumberThrows) {
  const char* argv[] = {"prog", "--alpha=abc"};
  Flags f(2, argv);
  EXPECT_THROW(f.get_double("alpha", 0.0), ConfigError);
}

TEST(Flags, NonFlagArgThrows) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Flags(2, argv), ConfigError);
}

TEST(Flags, UnreadKeysReported) {
  const char* argv[] = {"prog", "--used=1", "--unused=2"};
  Flags f(3, argv);
  (void)f.get_int("used", 0);
  const auto leftover = f.unread_keys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "unused");
}

TEST(Flags, RequireAllReadNamesEveryUnreadKey) {
  const char* argv[] = {"prog", "--used=1", "--bogus-flag", "7", "--typo"};
  Flags f(5, argv);
  (void)f.get_int("used", 0);
  try {
    f.require_all_read();
    FAIL() << "unread flags were accepted";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--bogus-flag"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--typo"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("--used"), std::string::npos) << msg;
  }
  (void)f.get_int("bogus-flag", 0);
  (void)f.get_bool("typo", false);
  EXPECT_NO_THROW(f.require_all_read());
}

// --- math_util ------------------------------------------------------------------

TEST(MathUtil, PositivePart) {
  EXPECT_EQ(positive_part(3.0), 3.0);
  EXPECT_EQ(positive_part(-3.0), 0.0);
  EXPECT_EQ(positive_part(0.0), 0.0);
}

TEST(MathUtil, PositivePartNorm) {
  EXPECT_NEAR(positive_part_norm({3.0, -4.0, 4.0}), 5.0, 1e-12);
  EXPECT_EQ(positive_part_norm({-1.0, -2.0}), 0.0);
}

TEST(MathUtil, SigmoidSymmetry) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-9);   // no overflow
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-9);
}

TEST(MathUtil, LogSumExpStable) {
  EXPECT_NEAR(log_sum_exp({0.0, 0.0}), std::log(2.0), 1e-12);
  // Large values must not overflow.
  EXPECT_NEAR(log_sum_exp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathUtil, DecibelConversions) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
}

TEST(MathUtil, DotAndNorm) {
  EXPECT_NEAR(dot({1, 2, 3}, {4, 5, 6}), 32.0, 1e-12);
  EXPECT_NEAR(l2_norm({3.0, 4.0}), 5.0, 1e-12);
}

}  // namespace
}  // namespace fedl

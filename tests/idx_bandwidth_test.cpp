// Tests for the IDX dataset loader/writer and the FDMA bandwidth
// allocation policies.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>

#include "common/error.h"
#include "data/idx_loader.h"
#include "data/synthetic.h"
#include "net/bandwidth.h"

namespace fedl {
namespace {

std::string tmp(const char* tag) {
  return std::string(::testing::TempDir()) + "/fedl_idx_" + tag;
}

// --- IDX ----------------------------------------------------------------------

TEST(IdxLoader, RoundTripsSyntheticDataset) {
  // Build a 1-channel dataset with pixels in [0,1] so quantization is tame.
  data::SyntheticSpec spec = data::fmnist_like_spec(30, 5);
  spec.noise_stddev = 0.05;
  spec.signal_scale = 0.2;
  data::Dataset ds = data::make_synthetic(spec);

  const std::string img = tmp("rt-img"), lab = tmp("rt-lab");
  data::save_idx(ds, img, lab);
  const data::Dataset loaded = data::load_idx(img, lab);

  ASSERT_EQ(loaded.size(), ds.size());
  EXPECT_TRUE((loaded.sample_shape() == Shape{1, 28, 28}));
  EXPECT_EQ(loaded.labels(), ds.labels());
  // Pixels survive up to clamping + 8-bit quantization.
  for (std::size_t i = 0; i < 200; ++i) {
    const float orig =
        std::clamp(ds.images()[i], 0.0f, 1.0f);
    EXPECT_NEAR(loaded.images()[i], orig, 1.0f / 255.0f + 1e-6f);
  }
  std::remove(img.c_str());
  std::remove(lab.c_str());
}

TEST(IdxLoader, LimitTruncates) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(20, 7));
  const std::string img = tmp("lim-img"), lab = tmp("lim-lab");
  data::save_idx(ds, img, lab);
  const data::Dataset loaded = data::load_idx(img, lab, 10, 5);
  EXPECT_EQ(loaded.size(), 5u);
  std::remove(img.c_str());
  std::remove(lab.c_str());
}

TEST(IdxLoader, MissingFilesThrow) {
  EXPECT_THROW(data::load_idx("/no/such/images", "/no/such/labels"),
               ConfigError);
}

TEST(IdxLoader, BadMagicThrows) {
  const std::string img = tmp("bad-img"), lab = tmp("bad-lab");
  {
    std::ofstream f(img, std::ios::binary);
    const char junk[16] = {0};
    f.write(junk, sizeof junk);
    std::ofstream g(lab, std::ios::binary);
    g.write(junk, sizeof junk);
  }
  EXPECT_THROW(data::load_idx(img, lab), ConfigError);
  std::remove(img.c_str());
  std::remove(lab.c_str());
}

TEST(IdxLoader, CountMismatchThrows) {
  data::Dataset a = data::make_synthetic(data::fmnist_like_spec(10, 9));
  data::Dataset b = data::make_synthetic(data::fmnist_like_spec(12, 9));
  const std::string img_a = tmp("mm-img-a"), lab_a = tmp("mm-lab-a");
  const std::string img_b = tmp("mm-img-b"), lab_b = tmp("mm-lab-b");
  data::save_idx(a, img_a, lab_a);
  data::save_idx(b, img_b, lab_b);
  EXPECT_THROW(data::load_idx(img_a, lab_b), ConfigError);
  for (const auto& p : {img_a, lab_a, img_b, lab_b}) std::remove(p.c_str());
}

// --- bandwidth allocation ---------------------------------------------------------

net::ChannelModel make_channel(std::size_t n, std::uint64_t seed) {
  net::ChannelSpec spec;
  spec.seed = seed;
  return net::ChannelModel(n, spec);
}

struct PolicyCase {
  net::BandwidthPolicy policy;
};

// Prints a case as its policy ("equal", "inverse_rate", "minmax"); ctest
// names each case after it instead of the enum's raw bytes.
void PrintTo(const PolicyCase& c, std::ostream* os) {
  static const char* const kNames[] = {"equal", "inverse_rate", "minmax"};
  *os << kNames[static_cast<int>(c.policy)];
}

class BandwidthPolicies : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(BandwidthPolicies, ConservesTotalBandwidth) {
  auto ch = make_channel(8, 3);
  const std::vector<std::size_t> clients = {0, 2, 4, 6};
  const auto alloc =
      net::allocate_bandwidth(ch, clients, 1e6, GetParam().policy);
  ASSERT_EQ(alloc.bandwidth_hz.size(), clients.size());
  const double total = std::accumulate(alloc.bandwidth_hz.begin(),
                                       alloc.bandwidth_hz.end(), 0.0);
  EXPECT_NEAR(total, net::kBandwidthHz, 1e-6 * net::kBandwidthHz);
  for (double b : alloc.bandwidth_hz) EXPECT_GT(b, 0.0);
  for (double t : alloc.upload_time_s) EXPECT_GT(t, 0.0);
  EXPECT_GT(alloc.makespan_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BandwidthPolicies,
    ::testing::Values(PolicyCase{net::BandwidthPolicy::kEqual},
                      PolicyCase{net::BandwidthPolicy::kInverseRate},
                      PolicyCase{net::BandwidthPolicy::kMinMaxLatency}));

TEST(Bandwidth, EqualPolicySplitsEvenly) {
  auto ch = make_channel(5, 5);
  const auto alloc = net::allocate_bandwidth(
      ch, {0, 1, 2, 3}, 1e6, net::BandwidthPolicy::kEqual);
  for (double b : alloc.bandwidth_hz)
    EXPECT_NEAR(b, net::kBandwidthHz / 4.0, 1e-6);
}

TEST(Bandwidth, MinMaxBeatsEqualOnMakespan) {
  // With heterogeneous channel gains, the makespan-optimal split must never
  // be worse than the equal split.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto ch = make_channel(10, seed);
    const std::vector<std::size_t> clients = {0, 1, 2, 3, 4, 5};
    const auto equal = net::allocate_bandwidth(
        ch, clients, 1e7, net::BandwidthPolicy::kEqual);
    const auto minmax = net::allocate_bandwidth(
        ch, clients, 1e7, net::BandwidthPolicy::kMinMaxLatency);
    EXPECT_LE(minmax.makespan_s, equal.makespan_s * 1.001) << "seed " << seed;
  }
}

TEST(Bandwidth, MinMaxEqualizesUploadTimes) {
  auto ch = make_channel(6, 11);
  const std::vector<std::size_t> clients = {0, 1, 2, 3};
  const auto alloc = net::allocate_bandwidth(
      ch, clients, 1e7, net::BandwidthPolicy::kMinMaxLatency);
  // At the optimum every client finishes (nearly) simultaneously.
  double lo = alloc.upload_time_s[0], hi = alloc.upload_time_s[0];
  for (double t : alloc.upload_time_s) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_LT((hi - lo) / hi, 0.05);
}

TEST(Bandwidth, SingleClientGetsEverything) {
  auto ch = make_channel(3, 13);
  for (auto policy : {net::BandwidthPolicy::kEqual,
                      net::BandwidthPolicy::kInverseRate,
                      net::BandwidthPolicy::kMinMaxLatency}) {
    const auto alloc = net::allocate_bandwidth(ch, {1}, 1e6, policy);
    EXPECT_NEAR(alloc.bandwidth_hz[0], net::kBandwidthHz, 1.0);
  }
}

TEST(Bandwidth, EmptySelectionThrows) {
  auto ch = make_channel(3, 17);
  EXPECT_THROW(
      net::allocate_bandwidth(ch, {}, 1e6, net::BandwidthPolicy::kEqual),
      CheckError);
}

}  // namespace
}  // namespace fedl

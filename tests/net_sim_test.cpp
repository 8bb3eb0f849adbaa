// Tests for the wireless channel model (S6) and the device/environment
// simulation (S7), including hand-computed reference values for the paper's
// formulas.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/math_util.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "net/channel.h"
#include "sim/device.h"
#include "sim/environment.h"

namespace fedl {
namespace {

// --- channel ----------------------------------------------------------------

TEST(Channel, PathLossHandComputed) {
  // 128.1 + 37.6 log10(d_km): at 1 km the log term vanishes.
  EXPECT_NEAR(net::path_loss_db(1000.0), 128.1, 1e-9);
  // At 100 m: 128.1 + 37.6*(-1) = 90.5.
  EXPECT_NEAR(net::path_loss_db(100.0), 90.5, 1e-9);
  EXPECT_THROW(net::path_loss_db(0.0), CheckError);
}

TEST(Channel, ShannonRateHandComputed) {
  // b=1 Hz, SNR = 1 -> rate = log2(2) = 1 bit/s.
  EXPECT_NEAR(net::shannon_rate(1.0, 1.0, 1.0, 1.0), 1.0, 1e-12);
  // SNR = 3 -> 2 bits/s.
  EXPECT_NEAR(net::shannon_rate(1.0, 3.0, 1.0, 1.0), 2.0, 1e-12);
}

TEST(Channel, RateIncreasesWithBandwidthAndGain) {
  net::ChannelSpec spec;
  net::ChannelModel ch(4, spec);
  const double r1 = ch.rate(0, 1e6);
  const double r2 = ch.rate(0, 2e6);
  EXPECT_GT(r2, r1);  // more bandwidth, more rate
  EXPECT_LT(r2, 2 * r1 + 1.0);  // but sub-linear (noise grows with b)
}

TEST(Channel, EqualShareDecreasesWithSharers) {
  net::ChannelSpec spec;
  net::ChannelModel ch(4, spec);
  EXPECT_GT(ch.rate_equal_share(1, 2), ch.rate_equal_share(1, 10));
}

TEST(Channel, FadingChangesPerEpochGainStableWithin) {
  net::ChannelSpec spec;
  spec.seed = 5;
  net::ChannelModel ch(3, spec);
  const double g1 = ch.gain(0);
  EXPECT_EQ(ch.gain(0), g1);  // stable within the epoch
  ch.advance_epoch();
  EXPECT_NE(ch.gain(0), g1);  // redrawn shadow fading
}

TEST(Channel, DistancesWithinCell) {
  net::ChannelSpec spec;
  spec.cell_radius_m = 500.0;
  net::ChannelModel ch(200, spec);
  for (std::size_t k = 0; k < 200; ++k) {
    EXPECT_GE(ch.distance_m(k), 10.0);
    EXPECT_LE(ch.distance_m(k), 500.0);
  }
}

TEST(Channel, GainIsPositiveAndSmall) {
  net::ChannelModel ch(10, {});
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_GT(ch.gain(k), 0.0);
    EXPECT_LT(ch.gain(k), 1.0);  // path loss always attenuates
  }
}

// --- device fleet ---------------------------------------------------------------

TEST(DeviceFleet, ParameterRangesMatchSpec) {
  sim::DeviceSpec spec;
  sim::DeviceFleet fleet(100, spec);
  for (std::size_t k = 0; k < 100; ++k) {
    const auto& d = fleet.device(k);
    EXPECT_GT(d.cpu_hz, 0.0);
    EXPECT_LE(d.cpu_hz, spec.cpu_hz_max);
    EXPECT_GE(d.cycles_per_bit, spec.cycles_per_bit_lo);
    EXPECT_LE(d.cycles_per_bit, spec.cycles_per_bit_hi);
    EXPECT_GE(fleet.cost(k), spec.cost_lo);
    EXPECT_LE(fleet.cost(k), spec.cost_hi);
  }
}

TEST(DeviceFleet, ComputeLatencyFormula) {
  sim::DeviceSpec spec;
  spec.bits_per_sample = 1000.0;
  sim::DeviceFleet fleet(1, spec);
  const auto& d = fleet.device(0);
  const double expected = d.cycles_per_bit * 1000.0 * 50.0 / d.cpu_hz;
  EXPECT_NEAR(fleet.compute_latency(0, 50), expected, 1e-12);
}

TEST(DeviceFleet, AvailabilityFrequencyMatchesBernoulli) {
  sim::DeviceSpec spec;
  spec.availability_prob = 0.6;
  spec.seed = 77;
  sim::DeviceFleet fleet(50, spec);
  std::size_t available = 0, total = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    fleet.advance_epoch();
    available += fleet.available_set().size();
    total += 50;
  }
  EXPECT_NEAR(static_cast<double>(available) / total, 0.6, 0.03);
}

TEST(DeviceFleet, CostsVaryAcrossEpochs) {
  sim::DeviceFleet fleet(5, {});
  const double c0 = fleet.cost(0);
  fleet.advance_epoch();
  EXPECT_NE(fleet.cost(0), c0);
}

// --- environment ----------------------------------------------------------------

sim::EdgeEnvironment make_env(std::size_t clients, std::uint64_t seed,
                              const data::Dataset& ds) {
  Rng rng(seed);
  data::Partition p = data::partition_iid(ds, clients, rng);
  sim::EnvironmentSpec spec;
  spec.num_clients = clients;
  spec.device.seed = seed;
  spec.channel.seed = seed + 1;
  spec.online.seed = seed + 2;
  return sim::EdgeEnvironment(spec, p);
}

TEST(Environment, ContextListsOnlyAvailableClientsWithData) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(300, 43));
  auto env = make_env(10, 43, ds);
  const auto& ctx = env.advance_epoch();
  EXPECT_EQ(ctx.epoch, 1u);
  for (const auto& obs : ctx.available) {
    EXPECT_LT(obs.id, 10u);
    EXPECT_GT(obs.data_size, 0u);
    EXPECT_GT(obs.tau_loc, 0.0);
    EXPECT_GT(obs.tau_cm_est, 0.0);
    EXPECT_GT(obs.cost, 0.0);
    EXPECT_EQ(obs.data_size, env.client_data(obs.id).size());
  }
}

TEST(Environment, ContextFindWorks) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(300, 47));
  auto env = make_env(8, 47, ds);
  const auto& ctx = env.advance_epoch();
  ASSERT_FALSE(ctx.available.empty());
  const auto& first = ctx.available.front();
  EXPECT_TRUE(ctx.is_available(first.id));
  EXPECT_EQ(ctx.find(first.id)->id, first.id);
  // An id beyond the fleet is never available.
  EXPECT_FALSE(ctx.is_available(999));
}

TEST(Environment, EpochCounterAdvances) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(200, 53));
  auto env = make_env(5, 53, ds);
  env.advance_epoch();
  env.advance_epoch();
  EXPECT_EQ(env.epoch(), 2u);
}

TEST(Environment, RealizedTauCmGrowsWithSharers) {
  // One step is τ^loc + s/r_k at client k's FDMA share: committing more
  // clients to the band shrinks the share and lengthens the upload.
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(200, 59));
  auto env = make_env(5, 59, ds);
  std::vector<std::size_t> cohort;
  for (int e = 0; e < 20 && cohort.size() < 2; ++e) {
    cohort.clear();
    for (const auto& obs : env.advance_epoch().available)
      cohort.push_back(obs.id);
  }
  ASSERT_GE(cohort.size(), 2u);
  const std::size_t k = cohort.front();
  const double s = env.spec().device.upload_bits;
  const double alone = env.step_times({k}, {s})[0];
  EXPECT_DOUBLE_EQ(alone, env.context().find(k)->tau_loc +
                              s / env.channel().rate_equal_share(k, 1));
  const double shared =
      env.step_times(cohort, std::vector<double>(cohort.size(), s))[0];
  EXPECT_GT(shared, alone);
}

TEST(Environment, AvailabilityVariesOverTime) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(400, 61));
  auto env = make_env(20, 61, ds);
  std::set<std::size_t> sizes;
  for (int e = 0; e < 15; ++e) {
    sizes.insert(env.advance_epoch().available.size());
  }
  EXPECT_GT(sizes.size(), 1u);
}

TEST(Environment, DeterministicForSameSeeds) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(300, 67));
  auto env1 = make_env(10, 67, ds);
  auto env2 = make_env(10, 67, ds);
  for (int e = 0; e < 5; ++e) {
    const auto& c1 = env1.advance_epoch();
    const auto& c2 = env2.advance_epoch();
    ASSERT_EQ(c1.available.size(), c2.available.size());
    for (std::size_t i = 0; i < c1.available.size(); ++i) {
      EXPECT_EQ(c1.available[i].id, c2.available[i].id);
      EXPECT_EQ(c1.available[i].cost, c2.available[i].cost);
      EXPECT_EQ(c1.available[i].tau_loc, c2.available[i].tau_loc);
    }
  }
}

TEST(Environment, PartitionSizeMismatchThrows) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(100, 71));
  Rng rng(71);
  data::Partition p = data::partition_iid(ds, 4, rng);
  sim::EnvironmentSpec spec;
  spec.num_clients = 5;  // != 4 partitions
  EXPECT_THROW(sim::EdgeEnvironment(spec, p), CheckError);
}

}  // namespace
}  // namespace fedl

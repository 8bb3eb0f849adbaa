#include "net/channel.h"

#include <cmath>

#include "common/error.h"
#include "common/math_util.h"

namespace fedl::net {

double path_loss_db(double distance_m) {
  FEDL_CHECK_GT(distance_m, 0.0);
  const double d_km = distance_m / 1000.0;
  return 128.1 + 37.6 * std::log10(d_km);
}

double shannon_rate(double bandwidth_hz, double gain, double power_w,
                    double noise_w_per_hz) {
  FEDL_CHECK_GT(bandwidth_hz, 0.0);
  FEDL_CHECK_GT(noise_w_per_hz, 0.0);
  const double snr = gain * power_w / (noise_w_per_hz * bandwidth_hz);
  return bandwidth_hz * std::log2(1.0 + snr);
}

ChannelModel::ChannelModel(std::size_t num_clients, const ChannelSpec& spec)
    : rng_(spec.seed) {
  FEDL_CHECK_GT(num_clients, 0u);
  distance_m_.resize(num_clients);
  shadow_db_.resize(num_clients, 0.0);
  // Uniform placement over the disk: r = R * sqrt(u) gives uniform density.
  // Distances are floored at 10 m so the path-loss model stays in range.
  for (auto& d : distance_m_) {
    d = std::max(10.0, kCellRadiusM * std::sqrt(rng_.uniform()));
  }
  advance_epoch();
}

void ChannelModel::advance_epoch() {
  for (auto& s : shadow_db_) s = rng_.normal(0.0, kShadowStddevDb);
}

double ChannelModel::gain(std::size_t k) const {
  FEDL_CHECK_LT(k, distance_m_.size());
  const double loss_db = path_loss_db(distance_m_[k]) + shadow_db_[k];
  return db_to_linear(-loss_db);
}

double ChannelModel::rate(std::size_t k, double bandwidth_hz) const {
  const double p_w = dbm_to_watts(kTxPowerDbm);
  const double n0_w = dbm_to_watts(kNoiseDbmPerHz);
  return shannon_rate(bandwidth_hz, gain(k), p_w, n0_w);
}

double ChannelModel::rate_equal_share(std::size_t k,
                                      std::size_t num_sharing) const {
  FEDL_CHECK_GT(num_sharing, 0u);
  return rate(k, kBandwidthHz / static_cast<double>(num_sharing));
}

}  // namespace fedl::net

// Wireless uplink model from paper §3.2/§6.1.
//
//  * clients placed uniformly over a cell of radius kCellRadiusM;
//  * path loss: 128.1 + 37.6 log10(d) dB, d in km;
//  * log-normal shadow fading with kShadowStddevDb standard deviation,
//    redrawn each epoch (the time-varying communication status of
//    challenge 1);
//  * achievable rate: r = b log2(1 + h p / (N0 b)) with p = kTxPowerDbm and
//    N0 = kNoiseDbmPerHz;
//  * FDMA: participating clients share the cell bandwidth B = kBandwidthHz.
//
// The §6.1 values are the same in every experiment, so they are constants.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace fedl::net {

inline constexpr double kCellRadiusM = 500.0;
inline constexpr double kBandwidthHz = 20e6;      // B
inline constexpr double kNoiseDbmPerHz = -174.0;  // N0
inline constexpr double kShadowStddevDb = 8.0;
inline constexpr double kTxPowerDbm = 10.0;  // p_k (paper: 10 dB max power)

struct ChannelSpec {
  std::uint64_t seed = 11;
};

// Free function building blocks (unit-tested against hand computations).
double path_loss_db(double distance_m);
// Shannon rate in bit/s for bandwidth b (Hz), channel gain h (linear),
// transmit power p (W), noise density N0 (W/Hz).
double shannon_rate(double bandwidth_hz, double gain, double power_w,
                    double noise_w_per_hz);

// Per-client channel with epoch-varying shadow fading.
class ChannelModel {
 public:
  ChannelModel(std::size_t num_clients, const ChannelSpec& spec);

  std::size_t num_clients() const { return distance_m_.size(); }
  double distance_m(std::size_t k) const { return distance_m_[k]; }

  // Redraw shadow fading for all clients (call once per epoch).
  void advance_epoch();

  // Linear channel gain h_k for the current epoch.
  double gain(std::size_t k) const;

  // Uplink rate (bit/s) when client k is allocated `bandwidth_hz`.
  double rate(std::size_t k, double bandwidth_hz) const;

  // Uplink rate under an equal FDMA split of B across `num_sharing` clients.
  double rate_equal_share(std::size_t k, std::size_t num_sharing) const;

 private:
  Rng rng_;
  std::vector<double> distance_m_;
  std::vector<double> shadow_db_;
};

}  // namespace fedl::net

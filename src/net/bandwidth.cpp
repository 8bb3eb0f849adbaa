#include "net/bandwidth.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_util.h"

namespace fedl::net {
namespace {

// Required bandwidth for client (gain) to finish `bits` within `time_s`:
// solves b·log2(1 + g·p/(N0·b)) = bits/time for b by bisection (the rate is
// strictly increasing and concave in b).
double bandwidth_for_deadline(double gain, double power_w,
                              double noise_w_per_hz, double bits,
                              double time_s, double b_max) {
  const double target_rate = bits / time_s;
  auto rate = [&](double b) {
    return shannon_rate(b, gain, power_w, noise_w_per_hz);
  };
  if (rate(b_max) < target_rate) return b_max;  // infeasible even with all of B
  double lo = 1e-6, hi = b_max;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    (rate(mid) < target_rate ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::string bandwidth_policy_name(BandwidthPolicy policy) {
  switch (policy) {
    case BandwidthPolicy::kEqual:
      return "equal";
    case BandwidthPolicy::kInverseRate:
      return "inverse-rate";
    case BandwidthPolicy::kMinMaxLatency:
      return "minmax";
  }
  return "?";
}

Allocation allocate_bandwidth(const ChannelModel& channel,
                              const std::vector<std::size_t>& clients,
                              double upload_bits, BandwidthPolicy policy) {
  FEDL_CHECK(!clients.empty());
  FEDL_CHECK_GT(upload_bits, 0.0);
  const double total = kBandwidthHz;
  const double p_w = dbm_to_watts(kTxPowerDbm);
  const double n0_w = dbm_to_watts(kNoiseDbmPerHz);
  const std::size_t n = clients.size();

  Allocation out;
  out.bandwidth_hz.assign(n, 0.0);

  switch (policy) {
    case BandwidthPolicy::kEqual: {
      for (auto& b : out.bandwidth_hz) b = total / static_cast<double>(n);
      break;
    }
    case BandwidthPolicy::kInverseRate: {
      // Weight ∝ 1/r̂_k at the equal share, normalized to Σ b = B.
      std::vector<double> weight(n);
      double wsum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = channel.rate_equal_share(clients[i], n);
        weight[i] = 1.0 / std::max(r, 1.0);
        wsum += weight[i];
      }
      for (std::size_t i = 0; i < n; ++i)
        out.bandwidth_hz[i] = total * weight[i] / wsum;
      break;
    }
    case BandwidthPolicy::kMinMaxLatency: {
      // Outer bisection on the common finish time T: the bandwidth each
      // client needs to meet T decreases in T, so Σ b_k(T) is decreasing.
      std::vector<double> gains(n);
      for (std::size_t i = 0; i < n; ++i) gains[i] = channel.gain(clients[i]);
      auto demand = [&](double t) {
        double sum = 0.0;
        for (double g : gains)
          sum += bandwidth_for_deadline(g, p_w, n0_w, upload_bits, t, total);
        return sum;
      };
      // Bracket: at the equal-share makespan the demand is ≤ B.
      double hi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = channel.rate_equal_share(clients[i], n);
        hi = std::max(hi, upload_bits / r);
      }
      double lo = hi;
      for (int it = 0; it < 100 && demand(lo) <= total; ++it) lo *= 0.5;
      for (int it = 0; it < 80; ++it) {
        const double mid = 0.5 * (lo + hi);
        (demand(mid) > total ? lo : hi) = mid;
      }
      const double t_star = hi;
      double used = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        out.bandwidth_hz[i] = bandwidth_for_deadline(
            gains[i], p_w, n0_w, upload_bits, t_star, total);
        used += out.bandwidth_hz[i];
      }
      // Hand back any slack proportionally so Σ b = B exactly.
      if (used > 0.0) {
        const double scale = total / used;
        for (auto& b : out.bandwidth_hz) b *= scale;
      }
      break;
    }
  }

  out.upload_time_s.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = channel.rate(clients[i], out.bandwidth_hz[i]);
    out.upload_time_s[i] = upload_bits / r;
    out.makespan_s = std::max(out.makespan_s, out.upload_time_s[i]);
  }
  return out;
}

}  // namespace fedl::net

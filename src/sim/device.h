// Client device model: computation capability, rent cost, availability.
//
// Paper §3.2/§6.1 parameters: e_k ~ U[10, 30] cycles/bit, CPU up to 2 GHz,
// rent cost c_{t,k} ~ U[0.1, 12] (Amazon dynamic prices), availability is a
// Bernoulli draw per epoch. The ranges and the update size s are the same
// in every experiment, so they are constants.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace fedl::sim {

inline constexpr double kCpuHzMax = 2e9;         // f^max
inline constexpr double kCyclesPerBitLo = 10.0;  // e_k lower bound
inline constexpr double kCyclesPerBitHi = 30.0;  // e_k upper bound
inline constexpr double kCostLo = 0.1;           // c_{t,k} lower bound
inline constexpr double kCostHi = 12.0;          // c_{t,k} upper bound
inline constexpr double kUploadBits = 1e7;  // s: model update size (bits)

struct DeviceSpec {
  double availability_prob = 0.8;     // Bernoulli availability per epoch
  double bits_per_sample = 28.0 * 28.0 * 32.0;  // payload of one sample
  std::uint64_t seed = 13;
};

// Static per-client hardware draw.
struct Device {
  double cpu_hz;          // π_k (fixed per client; ≤ f^max)
  double cycles_per_bit;  // e_k
};

class DeviceFleet {
 public:
  DeviceFleet(std::size_t num_clients, const DeviceSpec& spec);

  std::size_t size() const { return devices_.size(); }
  const Device& device(std::size_t k) const;

  // τ^loc_{t,k}: seconds for ONE local update over `num_samples` samples.
  double compute_latency(std::size_t k, std::size_t num_samples) const;

  // Redraw epoch-varying state (costs, availability). Call once per epoch.
  void advance_epoch();

  double cost(std::size_t k) const;       // c_{t,k}
  bool available(std::size_t k) const;    // k ∈ E_t ?

 private:
  DeviceSpec spec_;
  Rng rng_;
  std::vector<Device> devices_;
  std::vector<double> cost_;
  std::vector<bool> available_;
};

}  // namespace fedl::sim

#include "sim/device.h"

#include "common/error.h"

namespace fedl::sim {

DeviceFleet::DeviceFleet(std::size_t num_clients, const DeviceSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  FEDL_CHECK_GT(num_clients, 0u);
  FEDL_CHECK(spec.availability_prob > 0.0 && spec.availability_prob <= 1.0);
  devices_.reserve(num_clients);
  for (std::size_t k = 0; k < num_clients; ++k) {
    Device d;
    // Heterogeneous CPUs: between 20% and 100% of f^max.
    d.cpu_hz = rng_.uniform(0.2 * kCpuHzMax, kCpuHzMax);
    d.cycles_per_bit = rng_.uniform(kCyclesPerBitLo, kCyclesPerBitHi);
    devices_.push_back(d);
  }
  cost_.resize(num_clients, kCostLo);
  available_.resize(num_clients, true);
  advance_epoch();
}

const Device& DeviceFleet::device(std::size_t k) const {
  FEDL_CHECK_LT(k, devices_.size());
  return devices_[k];
}

double DeviceFleet::compute_latency(std::size_t k,
                                    std::size_t num_samples) const {
  const Device& d = device(k);
  // τ^loc = e_k · |D_{t,k}| / π_k with |D| measured in bits.
  const double bits = spec_.bits_per_sample * static_cast<double>(num_samples);
  return d.cycles_per_bit * bits / d.cpu_hz;
}

void DeviceFleet::advance_epoch() {
  for (std::size_t k = 0; k < devices_.size(); ++k) {
    cost_[k] = rng_.uniform(kCostLo, kCostHi);
    available_[k] = rng_.bernoulli(spec_.availability_prob);
  }
}

double DeviceFleet::cost(std::size_t k) const {
  FEDL_CHECK_LT(k, cost_.size());
  return cost_[k];
}

bool DeviceFleet::available(std::size_t k) const {
  FEDL_CHECK_LT(k, available_.size());
  return available_[k];
}

}  // namespace fedl::sim

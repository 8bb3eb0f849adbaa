#include "sim/environment.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_util.h"

namespace fedl::sim {
namespace {

// SplitMix64 finalizer combine for counter-based lazy streams: each
// (seed, counter...) tuple keys an independent Rng, so per-client draws can
// be produced on demand in any order without a shared sequential stream.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool EpochContext::is_available(std::size_t client_id) const {
  return find(client_id) != nullptr;
}

const ClientObservation* EpochContext::find(std::size_t client_id) const {
  auto it = std::lower_bound(
      available.begin(), available.end(), client_id,
      [](const ClientObservation& o, std::size_t id) { return o.id < id; });
  if (it == available.end() || it->id != client_id) return nullptr;
  return &*it;
}

EdgeEnvironment::EdgeEnvironment(EnvironmentSpec spec,
                                 data::Partition partition)
    : spec_(spec),
      fleet_(std::make_unique<DeviceFleet>(spec.num_clients, spec.device)),
      channel_(
          std::make_unique<net::ChannelModel>(spec.num_clients, spec.channel)),
      stream_(std::make_unique<data::OnlineDataStream>(std::move(partition),
                                                       spec.online)) {
  FEDL_CHECK(!spec_.lazy_sampling)
      << "lazy environments take no partition; use the spec-only ctor";
  FEDL_CHECK_EQ(stream_->num_clients(), spec_.num_clients)
      << "partition must have one entry per client";
  FEDL_CHECK_GT(spec_.expected_participants, 0u);
  context_.epoch = 0;
}

EdgeEnvironment::EdgeEnvironment(EnvironmentSpec spec) : spec_(spec) {
  FEDL_CHECK(spec_.lazy_sampling)
      << "spec-only ctor is for lazy_sampling environments";
  FEDL_CHECK_GT(spec_.num_clients, 0u);
  FEDL_CHECK_GT(spec_.expected_participants, 0u);
  FEDL_CHECK_LT(spec_.device.cost_lo, spec_.device.cost_hi);
  FEDL_CHECK_GT(spec_.device.cost_lo, 0.0);
  FEDL_CHECK(spec_.device.availability_prob > 0.0 &&
             spec_.device.availability_prob <= 1.0);
  FEDL_CHECK_GE(spec_.lazy_data_lo, 1u);
  FEDL_CHECK_GE(spec_.lazy_data_hi, spec_.lazy_data_lo);
  context_.epoch = 0;
}

const std::vector<std::size_t>& EdgeEnvironment::client_data(
    std::size_t k) const {
  FEDL_CHECK(stream_ != nullptr) << "lazy environment holds no data stream";
  return stream_->epoch_indices(k);
}

const DeviceFleet& EdgeEnvironment::fleet() const {
  FEDL_CHECK(fleet_ != nullptr) << "lazy environment holds no device fleet";
  return *fleet_;
}

const net::ChannelModel& EdgeEnvironment::channel() const {
  FEDL_CHECK(channel_ != nullptr) << "lazy environment holds no channel";
  return *channel_;
}

const EpochContext& EdgeEnvironment::advance_epoch() {
  if (spec_.lazy_sampling) {
    advance_epoch_lazy();
    return context_;
  }
  fleet_->advance_epoch();
  channel_->advance_epoch();
  stream_->advance_epoch();

  context_.epoch += 1;
  context_.available.clear();
  for (std::size_t k = 0; k < spec_.num_clients; ++k) {
    if (!fleet_->available(k)) continue;
    const std::size_t d = stream_->epoch_size(k);
    if (d == 0) continue;  // no local data -> cannot train this epoch

    ClientObservation obs;
    obs.id = k;
    obs.cost = fleet_->cost(k);
    obs.data_size = d;
    obs.tau_loc = fleet_->compute_latency(k, d);
    const double rate =
        channel_->rate_equal_share(k, spec_.expected_participants);
    obs.tau_cm_est = fleet_->spec().upload_bits / rate;
    context_.available.push_back(obs);
  }
  return context_;
}

void EdgeEnvironment::advance_epoch_lazy() {
  context_.epoch += 1;
  context_.available.clear();
  const DeviceSpec& dev = spec_.device;
  const net::ChannelSpec& ch = spec_.channel;
  const double p = dev.availability_prob;
  const std::size_t m = spec_.num_clients;
  const double tx_w = dbm_to_watts(ch.tx_power_dbm);
  const double n0_w = dbm_to_watts(ch.noise_dbm_per_hz);
  const double share_hz =
      ch.bandwidth_hz / static_cast<double>(spec_.expected_participants);
  const std::uint64_t epoch_key = mix(dev.seed, context_.epoch);

  // Walk E_t directly: the gap to the next available client under i.i.d.
  // Bernoulli(p) is Geometric(p), sampled by inversion. Expected work is
  // |E_t| draws, never M. Ids come out in increasing order, as the
  // EpochContext contract requires.
  Rng walk(mix(epoch_key, 0x57a1cULL));
  const double log_q = p < 1.0 ? std::log1p(-p) : 0.0;
  std::size_t k = 0;
  while (true) {
    if (p < 1.0) {
      const double u = walk.uniform();  // in [0, 1): log1p(-u) is finite
      k += static_cast<std::size_t>(std::log1p(-u) / log_q);
    }
    if (k >= m) break;

    ClientObservation obs;
    obs.id = k;
    // Client-static hardware: keyed by (seed, id) only, so client k has the
    // same CPU, energy profile and position every time it shows up.
    Rng hw(mix(mix(dev.seed, 0x4a3dULL), k));
    const double cpu_hz = hw.uniform(0.2 * dev.cpu_hz_max, dev.cpu_hz_max);
    const double cycles_per_bit =
        hw.uniform(dev.cycles_per_bit_lo, dev.cycles_per_bit_hi);
    const double distance_m =
        std::max(10.0, ch.cell_radius_m * std::sqrt(hw.uniform()));
    // Epoch-varying draws: keyed by (seed, epoch, id).
    Rng ep(mix(epoch_key, k));
    obs.cost = ep.uniform(dev.cost_lo, dev.cost_hi);
    obs.data_size = spec_.lazy_data_lo == spec_.lazy_data_hi
                        ? spec_.lazy_data_lo
                        : static_cast<std::size_t>(ep.uniform_int(
                              static_cast<std::int64_t>(spec_.lazy_data_lo),
                              static_cast<std::int64_t>(spec_.lazy_data_hi)));
    const double bits =
        dev.bits_per_sample * static_cast<double>(obs.data_size);
    obs.tau_loc = cycles_per_bit * bits / cpu_hz;
    const double shadow_db = ep.normal(0.0, ch.shadow_stddev_db);
    const double gain =
        db_to_linear(-(net::path_loss_db(distance_m) + shadow_db));
    const double rate = net::shannon_rate(share_hz, gain, tx_w, n0_w);
    obs.tau_cm_est = dev.upload_bits / rate;
    context_.available.push_back(obs);
    ++k;
  }
}

std::vector<double> EdgeEnvironment::step_times(
    const std::vector<std::size_t>& selected,
    const std::vector<double>& payload_bits) const {
  FEDL_CHECK(!selected.empty());
  FEDL_CHECK_EQ(payload_bits.size(), selected.size());
  double max_bits = 0.0;
  for (double b : payload_bits) {
    FEDL_CHECK_GT(b, 0.0);
    max_bits = std::max(max_bits, b);
  }
  const net::Allocation alloc =
      net::allocate_bandwidth(channel(), selected, max_bits, spec_.bandwidth);
  std::vector<double> out(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const ClientObservation* obs = context_.find(selected[i]);
    FEDL_CHECK(obs != nullptr)
        << "client " << selected[i] << " not available in epoch "
        << context_.epoch;
    const double rate = channel().rate(selected[i], alloc.bandwidth_hz[i]);
    out[i] = obs->tau_loc + payload_bits[i] / rate;
  }
  return out;
}

}  // namespace fedl::sim

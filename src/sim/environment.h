// EdgeEnvironment — the complete simulated edge network of paper §3.1.
//
// Ties together the device fleet (S7), wireless channel (S6) and online data
// streams (S5) and exposes exactly what a 0-lookahead decision maker may
// observe at the *start* of epoch t: who is available, what they cost, how
// much data they currently hold, and latency estimates. Realized latencies
// (which depend on the selection itself through the FDMA share) come from
// step_times() only after a selection is committed, matching the paper's
// online model.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "data/online.h"
#include "net/bandwidth.h"
#include "net/channel.h"
#include "sim/device.h"

namespace fedl::sim {

// What the server can observe about one available client at decision time.
struct ClientObservation {
  std::size_t id = 0;
  double cost = 0.0;          // c_{t,k}
  std::size_t data_size = 0;  // D_{t,k}
  double tau_loc = 0.0;       // per-iteration compute latency (s)
  double tau_cm_est = 0.0;    // uplink latency estimate at the fair share (s)
};

struct EpochContext {
  std::size_t epoch = 0;
  std::vector<ClientObservation> available;  // E_t, ordered by client id

  bool is_available(std::size_t client_id) const;
  const ClientObservation* find(std::size_t client_id) const;
};

struct EnvironmentSpec {
  std::size_t num_clients = 100;
  DeviceSpec device;
  net::ChannelSpec channel;
  data::OnlineDataSpec online;
  // Share count assumed when estimating τ^cm before the selection size is
  // known (the paper's n: minimum participants per epoch).
  std::size_t expected_participants = 10;
  // How the cell bandwidth is split across the committed participants.
  net::BandwidthPolicy bandwidth = net::BandwidthPolicy::kEqual;
  // Lazy roster mode for very large M (million-client rosters): no
  // per-client fleet/channel/stream state is materialized. advance_epoch()
  // enumerates E_t by geometric skip-sampling over the Bernoulli
  // availability in O(|E_t|) expected time and derives every per-client
  // draw on demand from counter-based streams keyed by (seed, epoch, id) —
  // client-static hardware draws are keyed by (seed, id) alone, so a client
  // looks the same whenever it reappears. A lazy environment has no data
  // partition, so the training engine cannot run against it; it serves the
  // selection layer and the scale benches. A lazy client holds
  // U{32..128} samples each epoch.
  bool lazy_sampling = false;
};

class EdgeEnvironment {
 public:
  EdgeEnvironment(EnvironmentSpec spec, data::Partition partition);
  // Lazy-sampling environment (spec.lazy_sampling must be true): no
  // partition, no materialized per-client state.
  explicit EdgeEnvironment(EnvironmentSpec spec);

  std::size_t num_clients() const { return spec_.num_clients; }
  const EnvironmentSpec& spec() const { return spec_; }
  bool lazy() const { return spec_.lazy_sampling; }

  // Advance all time-varying state (availability, costs, fading, data) and
  // build the observation for the new epoch. O(M) in dense mode,
  // O(|E_t|) expected in lazy mode.
  const EpochContext& advance_epoch();
  const EpochContext& context() const { return context_; }
  std::size_t epoch() const { return context_.epoch; }

  // Sample indices client k holds in the current epoch (dense mode only).
  const std::vector<std::size_t>& client_data(std::size_t k) const;

  // The simulator's one latency function: each committed client's
  // one-iteration time τ^loc_k + τ^cm_k (parallel to `selected`), where
  // client i uploads payload_bits[i] bits (the constant s of the paper, or
  // a compressor's smaller payload). The configured bandwidth policy splits
  // the band for the largest payload (conservative); each client then sends
  // its own payload on its allocated band. Lockstep charges l of these per
  // engagement; the event engine schedules l unit steps this far apart.
  // Clients must be available in the current epoch context.
  std::vector<double> step_times(const std::vector<std::size_t>& selected,
                                 const std::vector<double>& payload_bits) const;

  // Dense-mode accessors; FEDL_CHECK in lazy mode (no materialized state).
  const DeviceFleet& fleet() const;
  const net::ChannelModel& channel() const;

 private:
  void advance_epoch_lazy();

  EnvironmentSpec spec_;
  // Null in lazy mode: the roster never materializes per-client state.
  std::unique_ptr<DeviceFleet> fleet_;
  std::unique_ptr<net::ChannelModel> channel_;
  std::unique_ptr<data::OnlineDataStream> stream_;
  EpochContext context_;
};

}  // namespace fedl::sim

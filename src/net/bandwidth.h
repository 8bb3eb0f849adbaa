// FDMA bandwidth allocation across the participants of an epoch.
//
// The paper splits the cell bandwidth B across participating clients
// (Σ b_k = B) but does not fix the split; related work (Shi et al. [24],
// Tran et al. [25]) optimizes it jointly. Three policies:
//  * kEqual        — b_k = B/|S| (the baseline assumption);
//  * kInverseRate  — b_k ∝ 1/r̂_k at the equal share: weak-channel clients
//                    get proportionally more spectrum (cheap heuristic);
//  * kMinMaxLatency — the makespan-optimal split: choose {b_k} minimizing
//                    max_k s/r_k(b_k), computed by nested bisection (upload
//                    finishes simultaneously for every client at the
//                    optimum, since each r_k(b) is strictly increasing).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/channel.h"

namespace fedl::net {

enum class BandwidthPolicy { kEqual, kInverseRate, kMinMaxLatency };

std::string bandwidth_policy_name(BandwidthPolicy policy);

struct Allocation {
  std::vector<double> bandwidth_hz;   // per client, Σ = B
  std::vector<double> upload_time_s;  // s / r_k(b_k)
  double makespan_s = 0.0;            // max upload time
};

// Allocates the channel's bandwidth across `clients` uploading `upload_bits`
// each. `clients` must be non-empty; gains are read from the channel's
// current epoch state.
Allocation allocate_bandwidth(const ChannelModel& channel,
                              const std::vector<std::size_t>& clients,
                              double upload_bits, BandwidthPolicy policy);

}  // namespace fedl::net

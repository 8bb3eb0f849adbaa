// Fig. 8 (extension): selection-layer scalability toward million-client
// rosters (ROADMAP open item 1).
//
// Sweeps the roster size M with the availability rate tuned so |E_t| stays
// near a fixed target (the FedCS regime: a huge installed base, a thin slice
// online per epoch), and times ONLY the selection layer — the lazy
// environment synthesizes observations in O(|E_t|), no engine runs, and the
// epoch outcome is a cheap synthetic so observe() gets realistic feedback.
// Each roster size runs twice: the dense prox solve (width 0, all of E_t)
// and the pruned solve (--width coordinates after heap-based top-k). The
// JSON report carries decide-latency and resident-state curves; run_benches
// stamps it into BENCH_scale.json.
//
//   fig8_scale_sweep --ms=1000,10000,100000,1000000 --et=1000 --width=64
//                    --epochs=6 --json-out=BENCH_scale.json
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "common/config.h"
#include "core/fedl_strategy.h"
#include "fig_common.h"
#include "obs/json_writer.h"
#include "obs/manifest.h"
#include "obs/session.h"
#include "sim/environment.h"

namespace fedl::bench {
namespace {

struct Cell {
  std::size_t m = 0;            // roster size M
  std::size_t width = 0;        // pruning width (0 = dense path)
  double et_mean = 0.0;         // realized mean |E_t|
  double decide_ms_mean = 0.0;  // strategy.decide wall clock per epoch
  double decide_ms_min = 0.0;
  double advance_ms_mean = 0.0;  // lazy env epoch advance
  std::size_t resident_bytes = 0;  // learner pooled-state footprint
  std::size_t active_clients = 0;  // clients holding a candidate record
  std::size_t epochs = 0;
  double selected_mean = 0.0;
};

Cell run_cell(std::size_t m, double avail_p, std::size_t width,
              std::size_t epochs, std::size_t n_min, std::uint64_t seed) {
  sim::EnvironmentSpec spec;
  spec.lazy_sampling = true;
  spec.num_clients = m;
  spec.expected_participants = n_min;
  spec.device.availability_prob = avail_p;
  spec.device.seed = seed * 31 + 7;
  sim::EdgeEnvironment env(spec);

  core::FedLConfig fc;
  fc.learner.n_min = n_min;
  fc.learner.selection_width = width;
  fc.seed = seed * 61 + 37;
  core::FedLStrategy strategy(m, fc);
  // Effectively unconstrained: the pacing cap, not the remainder, governs —
  // the sweep measures latency, not budget behavior.
  core::BudgetLedger ledger(1e15);

  Cell cell;
  cell.m = m;
  cell.width = width;
  cell.epochs = epochs;
  cell.decide_ms_min = 1e300;
  using clock = std::chrono::steady_clock;
  for (std::size_t t = 0; t < epochs; ++t) {
    const auto a0 = clock::now();
    const sim::EpochContext& ctx = env.advance_epoch();
    const auto a1 = clock::now();
    core::Decision dec = strategy.decide(ctx, ledger);
    const auto a2 = clock::now();

    const double adv_ms =
        std::chrono::duration<double, std::milli>(a1 - a0).count();
    const double dec_ms =
        std::chrono::duration<double, std::milli>(a2 - a1).count();
    cell.advance_ms_mean += adv_ms;
    cell.decide_ms_mean += dec_ms;
    cell.decide_ms_min = std::min(cell.decide_ms_min, dec_ms);
    cell.et_mean += static_cast<double>(ctx.available.size());
    cell.selected_mean += static_cast<double>(dec.selected.size());

    // Synthetic realized epoch: every selected client completes, with mild
    // per-client variation so the estimate EMAs do real work.
    fl::EpochOutcome out;
    out.epoch = ctx.epoch;
    out.selected = dec.selected;
    out.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
    double cost = 0.0;
    for (std::size_t i = 0; i < dec.selected.size(); ++i) {
      const sim::ClientObservation* obs = ctx.find(dec.selected[i]);
      cost += obs != nullptr ? obs->cost : 0.0;
      out.client_eta.push_back(0.4 + 0.2 * static_cast<double>(i % 3));
      out.client_loss_reduction.push_back(0.02 +
                                          0.01 * static_cast<double>(i % 5));
      out.client_completed_iters.push_back(out.num_iterations);
    }
    out.cost = cost;
    out.train_loss_all = 2.303 / (1.0 + 0.05 * static_cast<double>(t));
    ledger.charge(cost);
    strategy.observe(ctx, dec, out);
  }
  const double n = static_cast<double>(epochs);
  cell.advance_ms_mean /= n;
  cell.decide_ms_mean /= n;
  cell.et_mean /= n;
  cell.selected_mean /= n;
  cell.resident_bytes = strategy.learner().resident_bytes();
  cell.active_clients = strategy.learner().active_clients();
  return cell;
}

void write_json(std::ostream& os, const std::vector<Cell>& cells,
                std::size_t et_target, std::size_t width) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("bench").value("fig8_scale_sweep");
  w.key("et_target").value(static_cast<std::uint64_t>(et_target));
  w.key("pruning_width").value(static_cast<std::uint64_t>(width));
  w.key("cells").begin_array();
  for (const Cell& c : cells) {
    w.begin_object();
    w.key("num_clients").value(static_cast<std::uint64_t>(c.m));
    w.key("selection_width").value(static_cast<std::uint64_t>(c.width));
    w.key("epochs").value(static_cast<std::uint64_t>(c.epochs));
    w.key("et_mean").value(c.et_mean);
    w.key("selected_mean").value(c.selected_mean);
    w.key("advance_ms_mean").value(c.advance_ms_mean);
    w.key("decide_ms_mean").value(c.decide_ms_mean);
    w.key("decide_ms_min").value(c.decide_ms_min);
    w.key("resident_bytes").value(static_cast<std::uint64_t>(c.resident_bytes));
    w.key("active_clients").value(static_cast<std::uint64_t>(c.active_clients));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

int scale_main(int argc, char** argv) {
  Flags flags(argc, argv);
  obs::ObsSession session(flags, "warn");
  const std::vector<double> ms_d =
      flags.get_double_list("ms", {1e3, 1e4, 1e5, 1e6});
  const std::size_t et_target =
      static_cast<std::size_t>(flags.get_int("et", 1000));
  const std::size_t width =
      static_cast<std::size_t>(flags.get_int("width", 64));
  const std::size_t epochs =
      static_cast<std::size_t>(flags.get_int("epochs", 6));
  const std::size_t n_min = static_cast<std::size_t>(flags.get_int("n", 8));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_out = flags.get_string("json-out", "");
  flags.require_all_read();
  JsonReport report(json_out);
  // The sweep runs no harness, so its manifest (--manifest-out) records
  // the sweep's own parameters.
  obs::set_manifest_field("bench", "fig8_scale_sweep");
  obs::set_manifest_field("seed", seed);
  obs::set_manifest_field("et_target", static_cast<std::uint64_t>(et_target));
  obs::set_manifest_field("pruning_width", static_cast<std::uint64_t>(width));
  obs::set_manifest_field("epochs", static_cast<std::uint64_t>(epochs));
  obs::set_manifest_field("n_min", static_cast<std::uint64_t>(n_min));

  std::vector<Cell> cells;
  for (double md : ms_d) {
    const std::size_t m = static_cast<std::size_t>(md);
    // Keep |E_t| near the target regardless of M (thin online slice).
    const double p = std::min(
        1.0, static_cast<double>(et_target) / static_cast<double>(m));
    for (std::size_t w : {std::size_t{0}, width}) {
      if (w != 0 && w >= et_target) continue;  // pruning would be a no-op
      cells.push_back(run_cell(m, p, w, epochs, n_min, seed));
      const Cell& c = cells.back();
      std::cout << "M=" << c.m << " width=" << c.width
                << " |E_t|=" << c.et_mean
                << " decide_ms=" << c.decide_ms_mean
                << " advance_ms=" << c.advance_ms_mean
                << " resident_kb=" << c.resident_bytes / 1024.0
                << " active=" << c.active_clients << "\n";
    }
  }

  // Headline ratio: dense vs pruned decide latency at the largest M that
  // ran both paths.
  for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
    if (it->width == 0) continue;
    for (const Cell& d : cells) {
      if (d.m == it->m && d.width == 0) {
        std::cout << "speedup@M=" << d.m << ": "
                  << d.decide_ms_mean / it->decide_ms_mean << "x\n";
        break;
      }
    }
    break;
  }

  write_json(report.stream(), cells, et_target, width);
  report.finish();
  return 0;
}

}  // namespace
}  // namespace fedl::bench

int main(int argc, char** argv) {
  try {
    return fedl::bench::scale_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
}

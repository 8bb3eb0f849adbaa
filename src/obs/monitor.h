// Online invariant monitor: watches the paper's trajectory claims while the
// run is still going instead of discovering violations in offline scripts.
//
// Four monitors, one per claim:
//   regret_envelope  empirical dynamic regret R_T must stay inside the
//                    Theorem 2 envelope (times kRegretMargin);
//                    skipped per-epoch when the bound is infinite (Lemma 2
//                    degenerate case) or the caller has no bound yet.
//   budget_pacing    the realized epoch spend must respect the ρ_t-implied
//                    pacing cap, and cumulative spend must never exceed the
//                    hard budget C (the paper's long-term constraint).
//   estimator_drift  η̂_t must stay finite and in range, and its
//                    epoch-to-epoch movement (EMA of |η̂_t − η̂_{t-1}|) must
//                    decay below a threshold once warm — divergence here
//                    means the learner's η̂_k estimates never converge.
//   dropout_rate     the windowed mean dropout fraction must stay under a
//                    threshold; persistent mass dropout starves aggregation.
//
// Monitors are *edge-triggered*: an anomaly fires when a monitor crosses
// into violation and re-arms only after it recovers, so a persistently
// overdrawn trace yields exactly one record, not one per epoch. Every fire
// also bumps `obs.anomaly.<monitor>` and `obs.anomaly.total` counters; each
// evaluation bumps `obs.monitor.<monitor>_checks` so artifacts prove which
// monitors were actually armed.
//
// Layering: fedl_obs links only fedl_common, so this header speaks plain
// doubles — the harness computes `core::theorem2_regret_bound` and the
// pacing cap and feeds them in via EpochSample. Fields default to NaN
// ("not available"); a monitor whose inputs are absent skips that epoch.
// Enforcement policy also lives in the caller: the monitor reports, the
// harness decides whether --strict-monitor escalates to FEDL_CHECK.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace fedl::obs {

// regret_envelope: fire when regret > kRegretMargin * bound.
inline constexpr double kRegretMargin = 1.0;
// budget_pacing: fire when epoch_cost > pacing_cap * (1 + kPacingTolerance)
// or budget_spent > budget_total. The tolerance absorbs the documented
// post-rounding overshoot of the fractional cap.
inline constexpr double kPacingTolerance = 0.05;
// estimator_drift: η̂ must be in [0, kEtaLimit]; the EMA (decay
// kDriftDecay) of |Δη̂| must stay under kDriftThreshold once
// kDriftWarmupEpochs have passed.
inline constexpr double kEtaLimit = 1.0;
inline constexpr double kDriftThreshold = 0.25;
inline constexpr double kDriftDecay = 0.1;
inline constexpr std::uint64_t kDriftWarmupEpochs = 8;
// dropout_rate: windowed mean of dropped/selected over kDropoutWindow
// epochs must stay under kDropoutThreshold (the window must fill first).
inline constexpr std::size_t kDropoutWindow = 8;
inline constexpr double kDropoutThreshold = 0.5;

struct AnomalyRecord {
  std::string monitor;  // regret_envelope | budget_pacing | ...
  std::uint64_t epoch = 0;
  double observed = 0.0;  // the value that violated
  double limit = 0.0;     // the bound it violated
  std::string detail;     // human-readable one-liner
};

// One epoch's worth of monitor inputs. NaN means "not available this epoch";
// monitors missing an input skip silently (they stay armed, not violated).
struct EpochSample {
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  std::uint64_t epoch = 0;
  double regret = kNaN;        // empirical dynamic regret R_t
  double regret_bound = kNaN;  // theorem2_regret_bound at t (may be +inf)
  double epoch_cost = kNaN;    // realized spend this epoch
  double pacing_cap = kNaN;    // ρ_t-implied per-epoch cap
  double budget_spent = kNaN;  // cumulative spend through this epoch
  double budget_total = kNaN;  // hard budget C
  double eta_max = kNaN;       // η̂ fed to the decision
  double num_selected = kNaN;  // |A_t|
  double num_dropped = kNaN;   // dropouts among selected
};

class InvariantMonitor {
 public:
  InvariantMonitor();

  // Evaluates every armed monitor against the sample; returns the anomalies
  // that fired on *this* epoch (empty on a healthy or recovering epoch).
  std::vector<AnomalyRecord> on_epoch(const EpochSample& sample);

 private:
  // Edge-trigger state: true while the monitor is inside a violation.
  bool regret_violating_ = false;
  bool pacing_violating_ = false;
  bool drift_violating_ = false;
  bool dropout_violating_ = false;

  // estimator_drift state.
  double prev_eta_ = EpochSample::kNaN;
  double drift_ema_ = 0.0;
  std::uint64_t drift_epochs_ = 0;

  // dropout_rate sliding window (ring over kDropoutWindow epochs).
  std::array<double, kDropoutWindow> dropout_rates_{};
  std::size_t dropout_head_ = 0;
  std::size_t dropout_count_ = 0;
};

}  // namespace fedl::obs

#include "obs/monitor.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"

namespace fedl::obs {
namespace {

bool available(double v) { return !std::isnan(v); }

// Function-local statics so counters register on first use, never at static
// init (the registry outlives everything; see metrics.h).
const Counter& anomaly_total_counter() {
  static const Counter counter("obs.anomaly.total");
  return counter;
}
const Counter& monitor_counter(const std::string& name) {
  static const Counter regret("obs.anomaly.regret_envelope");
  static const Counter pacing("obs.anomaly.budget_pacing");
  static const Counter drift("obs.anomaly.estimator_drift");
  static const Counter dropout("obs.anomaly.dropout_rate");
  if (name == "regret_envelope") return regret;
  if (name == "budget_pacing") return pacing;
  if (name == "estimator_drift") return drift;
  FEDL_CHECK(name == "dropout_rate") << "unknown monitor: " << name;
  return dropout;
}
const Counter& checks_counter(int which) {
  static const Counter regret("obs.monitor.regret_checks");
  static const Counter pacing("obs.monitor.pacing_checks");
  static const Counter drift("obs.monitor.drift_checks");
  static const Counter dropout("obs.monitor.dropout_checks");
  switch (which) {
    case 0: return regret;
    case 1: return pacing;
    case 2: return drift;
    default: return dropout;
  }
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

InvariantMonitor::InvariantMonitor() {
  // Touch the anomaly counters so a healthy run exports them as explicit
  // zeros (a scraper must distinguish "armed and silent" from "absent").
  anomaly_total_counter();
  for (const char* name : {"regret_envelope", "budget_pacing",
                           "estimator_drift", "dropout_rate"})
    monitor_counter(name);
}

std::vector<AnomalyRecord> InvariantMonitor::on_epoch(
    const EpochSample& sample) {
  std::vector<AnomalyRecord> fired;
  const auto fire = [&](const std::string& monitor, double observed,
                        double limit, const std::string& detail) {
    AnomalyRecord record;
    record.monitor = monitor;
    record.epoch = sample.epoch;
    record.observed = observed;
    record.limit = limit;
    record.detail = detail;
    fired.push_back(std::move(record));
    monitor_counter(monitor).add();
    anomaly_total_counter().add();
  };

  // regret_envelope — skip when the bound is absent or infinite (Lemma 2
  // degenerate regime: the theorem promises nothing, so nothing to enforce;
  // the monitor stays armed for later epochs where the bound tightens).
  if (available(sample.regret) && available(sample.regret_bound) &&
      std::isfinite(sample.regret_bound)) {
    checks_counter(0).add();
    const double limit = kRegretMargin * sample.regret_bound;
    const bool violating = sample.regret > limit;
    if (violating && !regret_violating_)
      fire("regret_envelope", sample.regret, limit,
           "dynamic regret " + format_double(sample.regret) +
               " exceeds Theorem 2 envelope " + format_double(limit));
    regret_violating_ = violating;
  }

  // budget_pacing — two sub-checks share one edge trigger: the per-epoch
  // pacing cap (soft, with rounding tolerance) and the hard budget C.
  if (available(sample.epoch_cost) || available(sample.budget_spent)) {
    checks_counter(1).add();
    bool violating = false;
    double observed = 0.0, limit = 0.0;
    std::string detail;
    if (available(sample.budget_spent) && available(sample.budget_total) &&
        sample.budget_spent > sample.budget_total) {
      violating = true;
      observed = sample.budget_spent;
      limit = sample.budget_total;
      detail = "cumulative spend " + format_double(observed) +
               " overdraws budget C=" + format_double(limit);
    } else if (available(sample.epoch_cost) && available(sample.pacing_cap)) {
      limit = sample.pacing_cap * (1.0 + kPacingTolerance);
      if (sample.epoch_cost > limit) {
        violating = true;
        observed = sample.epoch_cost;
        detail = "epoch cost " + format_double(observed) +
                 " exceeds paced cap " + format_double(limit);
      }
    }
    if (violating && !pacing_violating_)
      fire("budget_pacing", observed, limit, detail);
    pacing_violating_ = violating;
  }

  // estimator_drift — range check always; EMA-of-step check once warm.
  if (available(sample.eta_max)) {
    checks_counter(2).add();
    bool violating = false;
    double observed = sample.eta_max, limit = kEtaLimit;
    std::string detail;
    if (!std::isfinite(sample.eta_max) || sample.eta_max < 0.0 ||
        sample.eta_max > kEtaLimit) {
      violating = true;
      detail = "eta estimate " + format_double(sample.eta_max) +
               " outside [0, " + format_double(kEtaLimit) + "]";
    } else {
      if (available(prev_eta_)) {
        const double step = std::fabs(sample.eta_max - prev_eta_);
        drift_ema_ = kDriftDecay * step + (1.0 - kDriftDecay) * drift_ema_;
        ++drift_epochs_;
      }
      prev_eta_ = sample.eta_max;
      if (drift_epochs_ >= kDriftWarmupEpochs &&
          drift_ema_ > kDriftThreshold) {
        violating = true;
        observed = drift_ema_;
        limit = kDriftThreshold;
        detail = "eta estimate EMA drift " + format_double(drift_ema_) +
                 " not converging (threshold " +
                 format_double(kDriftThreshold) + ")";
      }
    }
    if (violating && !drift_violating_)
      fire("estimator_drift", observed, limit, detail);
    drift_violating_ = violating;
  }

  // dropout_rate — windowed mean once the window has filled.
  if (available(sample.num_selected) && sample.num_selected > 0.0) {
    const double dropped = available(sample.num_dropped) ? sample.num_dropped : 0.0;
    dropout_rates_[dropout_head_] = dropped / sample.num_selected;
    dropout_head_ = (dropout_head_ + 1) % kDropoutWindow;
    if (dropout_count_ < kDropoutWindow) ++dropout_count_;
    if (dropout_count_ == kDropoutWindow) {
      checks_counter(3).add();
      double mean = 0.0;
      for (const double rate : dropout_rates_) mean += rate;
      mean /= static_cast<double>(kDropoutWindow);
      const bool violating = mean > kDropoutThreshold;
      if (violating && !dropout_violating_)
        fire("dropout_rate", mean, kDropoutThreshold,
             "windowed dropout rate " + format_double(mean) +
                 " over last " + std::to_string(kDropoutWindow) +
                 " epochs exceeds " + format_double(kDropoutThreshold));
      dropout_violating_ = violating;
    }
  }

  return fired;
}

}  // namespace fedl::obs

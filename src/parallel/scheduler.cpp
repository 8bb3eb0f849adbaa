#include "parallel/scheduler.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace fedl {
namespace {

thread_local bool tl_in_trial = false;

// Scheduler gauges/counters (PR 3 registry): live occupancy of the thread
// budget plus the work-stealing traffic. Updated under the scheduler mutex,
// so gauge values are always a consistent snapshot of the accounting.
const obs::Gauge& budget_gauge() {
  static const obs::Gauge g("scheduler.thread_budget");
  return g;
}
const obs::Gauge& active_trials_gauge() {
  static const obs::Gauge g("scheduler.active_trials");
  return g;
}
const obs::Gauge& leased_gauge() {
  static const obs::Gauge g("scheduler.leased_slots");
  return g;
}
const obs::Gauge& borrowed_gauge() {
  static const obs::Gauge g("scheduler.borrowed_slots");
  return g;
}
const obs::Gauge& peak_gauge() {
  static const obs::Gauge g("scheduler.peak_inflight");
  return g;
}
const obs::Counter& trials_counter() {
  static const obs::Counter c("scheduler.trials");
  return c;
}
const obs::Counter& steals_counter() {
  static const obs::Counter c("scheduler.steals");
  return c;
}

std::size_t hardware_budget() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

Scheduler::Scheduler() : budget_(hardware_budget()), jobs_(1) {
  if (budget_ > 1) pool_ = std::make_unique<ThreadPool>(budget_ - 1);
  obs::set_manifest_field("thread_budget",
                          static_cast<std::uint64_t>(budget_));
  obs::set_manifest_field("jobs", static_cast<std::uint64_t>(jobs_));
  std::lock_guard<std::mutex> lock(mutex_);
  update_gauges_locked();
}

Scheduler& Scheduler::instance() {
  // Intentionally leaked so leases/trials racing static teardown stay safe
  // (same policy as MetricsRegistry::global).
  static Scheduler* s = new Scheduler();  // fedl-lint: allow(naked-new)
  return *s;
}

void Scheduler::configure(std::size_t budget, std::size_t jobs) {
  if (budget == 0) budget = hardware_budget();
  if (jobs == 0) jobs = budget;
  std::unique_ptr<ThreadPool> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FEDL_CHECK_EQ(active_trials_, 0u)
        << "Scheduler::configure while trials are running";
    FEDL_CHECK_EQ(leased_, 0u)
        << "Scheduler::configure while worker leases are outstanding";
    if (budget != budget_) {
      retired = std::move(pool_);
      budget_ = budget;
      if (budget_ > 1) pool_ = std::make_unique<ThreadPool>(budget_ - 1);
    }
    jobs_ = jobs;
    update_gauges_locked();
  }
  // Old pool (if any) joins its workers outside the lock.
  obs::set_manifest_field("thread_budget", static_cast<std::uint64_t>(budget));
  obs::set_manifest_field("jobs", static_cast<std::uint64_t>(jobs));
}

std::size_t Scheduler::max_concurrent_trials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::min(jobs_, budget_);
}

Scheduler::WorkerLease::~WorkerLease() {
  if (granted_ > 0) owner_->release_workers(granted_);
}

Scheduler::WorkerLease Scheduler::lease(std::size_t max_chunks) {
  if (max_chunks <= 1) return WorkerLease(this, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  // Every live runner thread reserves its slot (runners_), whether or not
  // its current trial has begun — otherwise an early trial could steal
  // slots that sibling runners are about to occupy. A free-standing caller
  // (bench main thread, tests, pool workers) is charged one slot for its
  // own thread.
  const std::size_t occupied = runners_ + leased_ + (tl_in_trial ? 0 : 1);
  if (occupied >= budget_) return WorkerLease(this, 0);
  const std::size_t granted = std::min(max_chunks - 1, budget_ - occupied);
  leased_ += granted;
  const std::size_t share =
      std::max<std::size_t>(1, budget_ / std::min(jobs_, budget_)) - 1;
  if (granted > share) {
    const std::size_t stolen = granted - share;
    stolen_now_ += stolen;
    stolen_slots_ += stolen;
    ++steal_count_;
    steals_counter().add();
  }
  peak_inflight_ = std::max(peak_inflight_, active_trials_ + leased_);
  update_gauges_locked();
  return WorkerLease(this, granted);
}

void Scheduler::release_workers(std::size_t granted) {
  std::lock_guard<std::mutex> lock(mutex_);
  FEDL_CHECK_GE(leased_, granted);
  leased_ -= granted;
  if (leased_ == 0) stolen_now_ = 0;
  update_gauges_locked();
}

void Scheduler::start_trial() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++active_trials_;
  peak_inflight_ = std::max(peak_inflight_, active_trials_ + leased_);
  update_gauges_locked();
}

void Scheduler::end_trial() {
  std::lock_guard<std::mutex> lock(mutex_);
  FEDL_CHECK_GT(active_trials_, 0u);
  --active_trials_;
  ++trials_run_;
  trials_counter().add();
  update_gauges_locked();
}

void Scheduler::run_trials(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  FEDL_CHECK(!tl_in_trial) << "nested Scheduler::run_trials";
  const std::size_t width = std::min(max_concurrent_trials(), n);
  std::vector<std::exception_ptr> errors(n);

  // All runner slots are reserved up front (so leases can never crowd out
  // a runner that has not claimed its first trial yet) and returned as each
  // runner drains, letting straggler trials steal the freed capacity. Each
  // runner claims trial indices from a shared counter; a trial's body runs
  // with the in-trial flag set so its fan-out requests are accounted
  // against its own (already-held) slot.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    runners_ += width;
  }
  std::atomic<std::size_t> next{0};
  auto runner = [&] {
    tl_in_trial = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      start_trial();
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      end_trial();
    }
    tl_in_trial = false;
    std::lock_guard<std::mutex> lock(mutex_);
    FEDL_CHECK_GT(runners_, 0u);
    --runners_;
  };

  if (width <= 1) {
    runner();  // inline on the caller: same accounting, no extra thread
  } else {
    std::vector<std::thread> threads;
    threads.reserve(width);
    for (std::size_t r = 0; r < width; ++r)
      threads.emplace_back([&runner, r] {
        obs::Profiler::global().set_thread_name("grid-runner-" +
                                                std::to_string(r));
        runner();
      });
    for (auto& t : threads) t.join();
  }
  for (std::size_t i = 0; i < n; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats s;
  s.thread_budget = budget_;
  s.active_trials = active_trials_;
  s.leased_slots = leased_;
  s.peak_inflight = peak_inflight_;
  s.trials_run = trials_run_;
  s.steal_count = steal_count_;
  s.stolen_slots = stolen_slots_;
  return s;
}

void Scheduler::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_inflight_ = active_trials_ + leased_;
  trials_run_ = 0;
  steal_count_ = 0;
  stolen_slots_ = 0;
  update_gauges_locked();
}

void Scheduler::update_gauges_locked() {
  budget_gauge().set(static_cast<double>(budget_));
  active_trials_gauge().set(static_cast<double>(active_trials_));
  leased_gauge().set(static_cast<double>(leased_));
  borrowed_gauge().set(static_cast<double>(stolen_now_));
  peak_gauge().set(static_cast<double>(peak_inflight_));
}

}  // namespace fedl

#include "parallel/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace fedl {
namespace {

// Pool metrics: task throughput, queue pressure at submit time, and
// accumulated busy time per worker (utilization = pool.busy_us relative to
// workers x wall time; tasks here are whole client solves, so the two clock
// reads per task are noise).
const obs::Counter& tasks_submitted() {
  static const obs::Counter c("pool.tasks_submitted");
  return c;
}
const obs::Counter& tasks_executed() {
  static const obs::Counter c("pool.tasks_executed");
  return c;
}
const obs::Counter& busy_us_total() {
  static const obs::Counter c("pool.busy_us");
  return c;
}
const obs::Histogram& queue_depth_hist() {
  static const obs::Histogram h("pool.queue_depth",
                                {1, 2, 4, 8, 16, 32, 64, 128});
  return h;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  static const obs::Gauge workers_gauge("pool.workers");
  workers_gauge.set(static_cast<double>(threads));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] {
      obs::Profiler::global().set_thread_name("pool-worker-" +
                                              std::to_string(i));
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::record_submit(std::size_t queue_depth) {
  tasks_submitted().add();
  queue_depth_hist().observe(static_cast<double>(queue_depth));
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    task();  // packaged_task captures exceptions into the future
    busy_us_total().add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    tasks_executed().add();
  }
}

}  // namespace fedl

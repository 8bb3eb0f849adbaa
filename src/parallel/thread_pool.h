// Fixed-size work-queue thread pool.
//
// The FL engine trains the selected clients of an epoch concurrently — the
// natural parallel decomposition of federated learning, where every client's
// local solve is independent between aggregations. The pool is created once
// and reused across epochs so thread start-up cost is not paid per round.
//
// Design notes (following the C++ Core Guidelines concurrency rules):
//  * tasks are type-erased std::function<void()>; results flow through
//    std::future via submit();
//  * shutdown joins all workers in the destructor (RAII — CP.25);
//  * no detached threads, no shared mutable state without a lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedl {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a callable; the returned future reports the result (or rethrows
  // the task's exception at .get()).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_)
        throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
      depth = queue_.size();
    }
    record_submit(depth);
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();
  // Metrics hooks (non-template so the obs dependency stays in the .cpp):
  // queue depth observed after an enqueue, and per-task execution counters.
  static void record_submit(std::size_t queue_depth);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace fedl

// Unit tests for the thread pool and the caller-participating fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"

namespace fedl {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i)
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      (void)pool.submit([&done] { done.fetch_add(1); });
  }  // destructor joins; queued tasks may or may not all run before stop
  // At minimum the pool must not crash; tasks submitted before shutdown run.
  EXPECT_GE(done.load(), 0);
}

// parallel_for_shared_indexed: `extra` pool chunks plus the caller's chunk.
TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_shared_indexed(
      &pool, pool.size(), 0, hits.size(),
      [&](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  const auto body = [&](std::size_t, std::size_t) { ++calls; };
  parallel_for_shared_indexed(&pool, pool.size(), 5, 5, body);
  parallel_for_shared_indexed(&pool, pool.size(), 7, 3, body);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20);
  parallel_for_shared_indexed(
      &pool, pool.size(), 5, 15,
      [&](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 15) ? 1 : 0);
}

TEST(ParallelFor, ExceptionInBodyRethrows) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_shared_indexed(
                   &pool, pool.size(), 0, 100,
                   [&](std::size_t, std::size_t i) {
                     if (i == 37) throw std::runtime_error("bad");
                   }),
               std::runtime_error);
}

TEST(ParallelFor, CallerChunkThrowWaitsForPoolChunks) {
  // The caller's chunk throws at once while both pool chunks still run the
  // body by reference: the exception may only surface after they finish.
  std::atomic<int> finished{0};
  const auto body = [&](std::size_t chunk, std::size_t) {
    if (chunk == 0) throw std::runtime_error("caller chunk");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(1);
  };
  ThreadPool pool(2);  // declared last: joins before body and counter die
  try {
    parallel_for_shared_indexed(&pool, 2, 0, 3, body);
    ADD_FAILURE() << "the caller chunk's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller chunk");
    EXPECT_EQ(finished.load(), 2);
  }
}

TEST(ParallelFor, CallingChunkRunsBelowCallerFrame) {
  // Pool chunks keep re-reading the closure and the caller locals it
  // captures by reference, so the stack chunk 0 writes on the calling
  // thread must stay out of their 128-byte blocks and the blocks next to
  // them: a local of the body, forced into memory, sits at least two
  // blocks below the lowest of them.
  Scheduler& sched = Scheduler::instance();
  sched.configure(4, 1);
  std::size_t offset = 3;           // read by every chunk
  std::uintptr_t chunk0_local = 0;  // written by chunk 0 only
  std::vector<std::atomic<std::size_t>> seen(4);
  const auto body = [&](std::size_t chunk, std::size_t i) {
    volatile std::size_t local = i + offset;
    seen[i].store(local);
    if (chunk == 0) chunk0_local = reinterpret_cast<std::uintptr_t>(&local);
  };
  {
    const Scheduler::WorkerLease lease = sched.lease(4);
    ASSERT_EQ(lease.chunks(), 4u);
    lease.run(0, seen.size(), body);
  }
  sched.configure(0, 1);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i].load(), i + offset);

  const auto block = [](std::uintptr_t address) {
    return static_cast<std::int64_t>(address / kFanOutStackGap);
  };
  const auto address = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  const std::int64_t caller_block =
      block(std::min({address(&body), address(&offset),
                      address(&chunk0_local), address(&seen)}));
  ASSERT_NE(chunk0_local, 0u);
  EXPECT_GE(caller_block - block(chunk0_local), 2)
      << "blocks of " << kFanOutStackGap
      << " bytes between chunk 0's local and the caller's lowest captured "
         "block";
}

}  // namespace
}  // namespace fedl

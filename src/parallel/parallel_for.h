// Blocking caller-participating fan-out on top of ThreadPool: the one
// data-parallel loop behind Scheduler::WorkerLease::run, and so behind every
// leased fan-out (the GEMM macro loop, conv2d's sample blocks, the FL
// engine's per-client phases, the dataset synthesis's per-sample pixel
// pass, the He weight fill).
#pragma once

#include <algorithm>
#include <climits>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.h"

namespace fedl {

// Stack bytes left unwritten between a fan-out's caller and the chunk it
// runs itself: one aligned block of two 64-byte cache lines, the pair the
// adjacent-line prefetcher moves together. Pool chunks read the body's
// closure and its by-reference captures from the caller's frame, again
// after every call the compiler cannot see into; chunk 0's return
// addresses and spills would otherwise land in the same line pair and
// invalidate those lines on every call (DESIGN.md "Two-level parallelism").
inline constexpr std::size_t kFanOutStackGap = 128;

namespace detail {

// The loop every chunk runs. Never inlined, so chunk 0's frames start below
// the gap parallel_for_shared_indexed allocates before calling it.
template <typename Body>
[[gnu::noinline]] void run_chunk(const Body& body, std::size_t chunk,
                                 std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) body(chunk, i);
}

}  // namespace detail

// Runs body(chunk, i) for every i in [begin, end): splits the range into
// `extra + 1` contiguous chunks, submits chunks 1..extra to the pool and
// runs chunk 0 on the calling thread (the caller owns a budget slot too, so
// it must not idle while workers run). The chunk index lets callers hand
// each chunk a dedicated scratch slot (packed GEMM panels, model replicas)
// without any sharing between concurrently-running chunks; chunk boundaries
// only decide which thread runs an index, never the values computed.
// `pool` may be null when `extra` is 0: one chunk runs every index inline.
//
// Chunk 0 runs below a kFanOutStackGap-aligned block that nothing writes,
// so every stack byte it writes lies at least one whole block below the
// caller's frames, and bodies may capture the caller's locals by reference.
//
// Blocks until every submitted chunk has finished, even when a chunk throws
// (pool chunks hold `body` by reference, and the caller may release a
// worker lease on return), then rethrows the exception of the
// lowest-numbered chunk that threw.
template <typename Body>
void parallel_for_shared_indexed(ThreadPool* pool, std::size_t extra,
                                 std::size_t begin, std::size_t end,
                                 const Body& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, extra + 1);
  if (chunks <= 1) {
    detail::run_chunk(body, 0, begin, end);
    return;
  }
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks - 1);
  std::exception_ptr error;
  try {
    for (std::size_t c = 1; c < chunks; ++c) {
      const std::size_t lo = begin + c * per;
      const std::size_t hi = std::min(end, lo + per);
      if (lo >= hi) break;
      futs.push_back(pool->submit(
          [c, lo, hi, &body] { detail::run_chunk(body, c, lo, hi); }));
    }
    // The allocation sits at the bottom of this frame, so the call below
    // pushes its return address under the gap. The asm keeps the unused
    // allocation alive and in place before the call.
    void* gap = __builtin_alloca_with_align(kFanOutStackGap,
                                            kFanOutStackGap * CHAR_BIT);
    asm volatile("" : : "r"(gap) : "memory");
    detail::run_chunk(body, 0, begin, std::min(end, begin + per));
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fedl

// Blocking caller-participating fan-out on top of ThreadPool: the one
// data-parallel loop behind Scheduler::WorkerLease::run, and so behind every
// leased fan-out (the GEMM macro loop, conv2d's sample blocks, the FL
// engine's per-client phases, the dataset synthesis's per-sample pixel
// pass).
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.h"

namespace fedl {

// Runs body(chunk, i) for every i in [begin, end): splits the range into
// `extra + 1` contiguous chunks, submits chunks 1..extra to the pool and
// runs chunk 0 on the calling thread (the caller owns a budget slot too, so
// it must not idle while workers run). The chunk index lets callers hand
// each chunk a dedicated scratch slot (packed GEMM panels, model replicas)
// without any sharing between concurrently-running chunks; chunk boundaries
// only decide which thread runs an index, never the values computed.
//
// Blocks until every submitted chunk has finished, even when a chunk throws
// (pool chunks hold `body` by reference, and the caller may release a
// worker lease on return), then rethrows the exception of the
// lowest-numbered chunk that threw.
template <typename Body>
void parallel_for_shared_indexed(ThreadPool& pool, std::size_t extra,
                                 std::size_t begin, std::size_t end,
                                 const Body& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, extra + 1);
  if (chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(std::size_t{0}, i);
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
      futs.push_back(pool.submit([c, lo, hi, &body] {
        for (std::size_t i = lo; i < hi; ++i) body(c, i);
      }));
    }
    for (std::size_t i = begin; i < std::min(end, begin + per); ++i)
      body(std::size_t{0}, i);
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

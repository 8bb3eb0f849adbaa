// Process-wide two-level scheduler: concurrent experiment trials on top,
// leased fan-outs below, both drawing from one hardware-thread budget
// (DESIGN.md "Two-level parallelism").
//
// Level 1 (trials): run_trials(n, fn) executes n independent trials —
// (algorithm, setting, seed, budget) cells of an experiment grid — with at
// most `jobs` running concurrently, each on a dedicated runner thread that
// occupies one budget slot while its trial runs.
//
// Level 2 (fan-outs): every parallel loop — FlEngine::run_clients, the GEMM
// strip loop, Conv2d's sample blocks, the dataset synthesis, the He weight
// fill — takes its workers through lease(max_chunks).run(begin, end, body),
// whose chunk 0 runs on the caller below a stack gap, so a body may
// capture the caller's locals by reference. Grants are
// try-acquire against the remaining budget, so `--jobs J --threads K`
// composes predictably: J runners plus Σ granted leases never exceed the
// budget. A lease may take idle slots beyond the trial's share
// (budget/jobs), so a lone straggler trial ramps up to the whole machine;
// such slots are counted as steals.
//
// Determinism: grants only change how a fan-out is chunked across worker
// threads, never the values computed — every per-client task touches only
// its own slot and all floating-point reductions happen in client order on
// the trial's thread (see engine.cpp), so per-trial results are
// bit-identical for any (jobs, threads, budget) combination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace fedl {

struct SchedulerStats {
  std::size_t thread_budget = 0;  // total slots (trial runners + leases)
  std::size_t active_trials = 0;  // trials running right now
  std::size_t leased_slots = 0;   // worker slots currently handed out
  std::size_t peak_inflight = 0;  // max(active_trials + leased_slots) seen
  std::uint64_t trials_run = 0;   // trials completed since reset_stats()
  std::uint64_t steal_count = 0;  // leases that granted beyond the share
  std::uint64_t stolen_slots = 0; // slots granted beyond share, cumulative

  std::size_t inflight() const { return active_trials + leased_slots; }
};

class Scheduler {
 public:
  // The process-wide instance (never destroyed). Default configuration:
  // budget = hardware_concurrency, jobs = 1 — single-trial behavior with
  // whole-machine fan-out available to that trial.
  static Scheduler& instance();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Re-sizes the budget and top-level concurrency. budget 0 selects
  // hardware_concurrency (at least 1); jobs 0 selects the budget (one slot
  // per trial). Must only be called while the scheduler is idle (no trials
  // running, no leases outstanding) — checked.
  void configure(std::size_t budget, std::size_t jobs);

  // Trials that may run concurrently: min(jobs, budget).
  std::size_t max_concurrent_trials() const;

  // RAII grant of worker slots for one fan-out; the slots return to the
  // budget on destruction.
  class WorkerLease {
   public:
    WorkerLease(const WorkerLease&) = delete;
    WorkerLease& operator=(const WorkerLease&) = delete;
    ~WorkerLease();

    // Chunks run() splits a range into: the grant plus the caller's own.
    // Callers size one scratch slot per chunk from it before run().
    std::size_t chunks() const { return granted_ + 1; }

    // Runs body(chunk, i) for every i in [begin, end), each exactly once,
    // through parallel_for_shared_indexed: chunk c runs one contiguous
    // index range in increasing order, chunk 0 on the calling thread below
    // the fan-out's stack gap (so bodies may capture the caller's locals by
    // reference), ranges ordered by c, and c < chunks(); with no grant one
    // chunk runs every index inline. Values never depend on the grant
    // (bodies touch disjoint per-index state, and per-chunk scratch only,
    // by contract).
    template <typename Body>
    void run(std::size_t begin, std::size_t end, const Body& body) const {
      // configure() refuses to replace the pool while slots are leased; a
      // zero grant never touches it (there is none at budget 1).
      parallel_for_shared_indexed(owner_->pool_.get(), granted_, begin, end,
                                  body);
    }

   private:
    friend class Scheduler;
    WorkerLease(Scheduler* owner, std::size_t granted)
        : owner_(owner), granted_(granted) {}

    Scheduler* owner_ = nullptr;
    std::size_t granted_ = 0;
  };

  // Try-acquires up to max_chunks - 1 worker slots for the calling thread's
  // fan-out over at most `max_chunks` chunks. The caller's own slot is
  // accounted separately: every live run_trials runner reserves one slot
  // for its whole lifetime, a non-trial caller is charged one slot
  // implicitly. Slots granted beyond the trial's share (budget/jobs - 1)
  // are counted as stolen in the stats and gauges. Never blocks, and takes
  // no lock when max_chunks <= 1; a zero grant runs the fan-out inline.
  WorkerLease lease(std::size_t max_chunks);

  // Runs fn(0), …, fn(n-1) — each exactly once — with at most
  // max_concurrent_trials() executing concurrently, on dedicated runner
  // threads (or inline when the effective width is 1). Blocks until every
  // trial finished. A throwing trial does not stop the others; afterwards
  // the lowest-index exception is rethrown. Trials must not call
  // run_trials recursively (checked).
  void run_trials(std::size_t n, const std::function<void(std::size_t)>& fn);

  SchedulerStats stats() const;
  // Zeroes peak/steal/trial counters (budget and live occupancy are kept).
  void reset_stats();

 private:
  Scheduler();

  void start_trial();
  void end_trial();
  void release_workers(std::size_t granted);
  void update_gauges_locked();

  mutable std::mutex mutex_;
  std::size_t budget_ = 1;
  std::size_t jobs_ = 1;
  std::size_t runners_ = 0;  // live run_trials runner threads (slots reserved)
  std::size_t active_trials_ = 0;
  std::size_t leased_ = 0;
  std::size_t peak_inflight_ = 0;
  std::size_t stolen_now_ = 0;     // currently-leased slots beyond share
  std::uint64_t trials_run_ = 0;
  std::uint64_t steal_count_ = 0;
  std::uint64_t stolen_slots_ = 0;
  // Runs leased fan-out chunks: budget-1 workers, null when budget <= 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fedl

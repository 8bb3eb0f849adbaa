// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms for instrumenting the training hot paths.
//
// Counters and histograms use per-thread sharded storage: each thread owns a
// shard of relaxed atomics that only it writes (single-writer, so an
// increment is a load+store pair, ~a few ns and contention-free), and
// snapshot() merges the shards. Integer counts merge exactly regardless of
// thread interleaving, and nothing on the metrics path feeds back into the
// training computation, so instrumentation never perturbs the engine's
// bit-identical-results guarantee. Shards are recycled through a free list
// when threads exit, so snapshots never lose counts and pools that come and
// go do not grow the registry without bound.
//
// Handles are registered by name (idempotent) and are cheap to copy; the
// intended usage at an instrumentation site is a function-local static:
//
//   static const obs::Counter calls("gemm.calls");
//   calls.add();
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace fedl::obs {

struct HistogramSnapshot {
  std::vector<double> bounds;          // upper bucket edges, ascending
  std::vector<std::uint64_t> counts;   // bounds.size() + 1 (last = overflow)
  std::uint64_t total = 0;             // Σ counts
  double sum = 0.0;                    // Σ observed values

  double mean() const { return total == 0 ? 0.0 : sum / static_cast<double>(total); }
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // {"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
  //  "counts":[...],"total":N,"sum":S}}}
  void write_json(std::ostream& os) const;
};

class MetricsRegistry {
 public:
  // The process-wide registry every handle binds to. Never destroyed
  // (intentionally leaked) so metric updates during thread/static teardown
  // stay safe.
  static MetricsRegistry& global();

  // Registration is idempotent by name and thread-safe; re-registering a
  // name with a different kind (or different histogram bucket count) is a
  // checked error. Histogram bounds must be non-empty and strictly
  // ascending.
  std::size_t register_counter(const std::string& name);
  std::size_t register_gauge(const std::string& name);
  std::size_t register_histogram(const std::string& name,
                                 std::vector<double> bounds);

  void counter_add(std::size_t id, std::uint64_t delta);
  void gauge_set(std::size_t id, double value);
  // Buckets have "≤ bound" semantics: the observation lands in the first
  // bucket whose bound is >= value; values above the last bound land in the
  // overflow slot.
  void histogram_observe(std::size_t id, double value);

  // Merges all shards. Safe to call concurrently with updates (relaxed
  // reads: the snapshot is a consistent-enough point-in-time view; counts
  // already published by finished work are always included).
  MetricsSnapshot snapshot() const;

  // Zeroes every value (registrations are kept). Only call when no other
  // thread is updating metrics (test setup / between runs).
  void reset();

 private:
  MetricsRegistry() = default;

  // Capacities are fixed so shards can hold plain atomic arrays (atomics are
  // not movable). Generous for this codebase; exceeding one is a checked
  // error at registration time.
  static constexpr std::size_t kMaxCounters = 256;
  static constexpr std::size_t kMaxGauges = 128;
  static constexpr std::size_t kMaxHistograms = 64;
  static constexpr std::size_t kHistArenaSlots = 2048;

  struct Shard;
  struct ShardLease;

  Shard* local_shard();
  Shard* acquire_shard();
  void release_shard(Shard* shard);

  struct CounterDef {
    std::string name;
  };
  struct GaugeDef {
    std::string name;
  };
  struct HistogramDef {
    std::string name;
    std::vector<double> bounds;
    std::size_t arena_offset = 0;  // bounds.size()+1 slots in the arena
  };

  mutable std::mutex mutex_;  // registration + shard list + free list
  std::vector<CounterDef> counters_;
  std::vector<GaugeDef> gauges_;
  // Fixed storage: histogram_observe reads a definition without the mutex
  // while a registration may write the next slot and the count under it.
  std::unique_ptr<HistogramDef[]> histograms_ =
      std::make_unique<HistogramDef[]>(kMaxHistograms);
  std::size_t num_histograms_ = 0;
  std::map<std::string, std::pair<char, std::size_t>> by_name_;  // kind, id
  std::size_t arena_used_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> free_shards_;
  std::unique_ptr<std::atomic<double>[]> gauge_values_ =
      std::make_unique<std::atomic<double>[]>(kMaxGauges);
};

class Counter {
 public:
  explicit Counter(const std::string& name)
      : id_(MetricsRegistry::global().register_counter(name)) {}
  void add(std::uint64_t delta = 1) const {
    MetricsRegistry::global().counter_add(id_, delta);
  }

 private:
  std::size_t id_;
};

class Gauge {
 public:
  explicit Gauge(const std::string& name)
      : id_(MetricsRegistry::global().register_gauge(name)) {}
  void set(double value) const {
    MetricsRegistry::global().gauge_set(id_, value);
  }

 private:
  std::size_t id_;
};

class Histogram {
 public:
  Histogram(const std::string& name, std::vector<double> bounds)
      : id_(MetricsRegistry::global().register_histogram(name,
                                                         std::move(bounds))) {}
  void observe(double value) const {
    MetricsRegistry::global().histogram_observe(id_, value);
  }

 private:
  std::size_t id_;
};

}  // namespace fedl::obs

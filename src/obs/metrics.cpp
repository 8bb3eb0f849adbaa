#include "obs/metrics.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "obs/json_writer.h"

namespace fedl::obs {

// One thread's private slice of every sharded metric. Only the owning thread
// writes (plain load+store on relaxed atomics — the single-writer pattern),
// snapshot() reads concurrently with relaxed loads. Values are cumulative
// and survive shard recycling: a shard returned to the free list keeps its
// counts and simply continues accumulating under its next owner (the
// release/acquire handoff goes through the registry mutex, so successive
// owners are synchronized).
struct MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kHistArenaSlots> hist_counts{};
  std::array<std::atomic<double>, kMaxHistograms> hist_sums{};
};

struct MetricsRegistry::ShardLease {
  Shard* shard = nullptr;
  ~ShardLease() {
    if (shard) MetricsRegistry::global().release_shard(shard);
  }
};

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: handles and thread-exit lease destructors may run
  // during static teardown, after a function-local static would be gone.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();  // fedl-lint: allow(naked-new)
    for (std::size_t i = 0; i < kMaxGauges; ++i)
      r->gauge_values_[i].store(0.0, std::memory_order_relaxed);
    return r;
  }();
  return *registry;
}

MetricsRegistry::Shard* MetricsRegistry::local_shard() {
  thread_local ShardLease lease;
  if (!lease.shard) lease.shard = acquire_shard();
  return lease.shard;
}

MetricsRegistry::Shard* MetricsRegistry::acquire_shard() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_shards_.empty()) {
    Shard* s = free_shards_.back();
    free_shards_.pop_back();
    return s;
  }
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

void MetricsRegistry::release_shard(Shard* shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_shards_.push_back(shard);
}

std::size_t MetricsRegistry::register_counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    FEDL_CHECK_EQ(it->second.first, 'c') << "metric kind clash for " << name;
    return it->second.second;
  }
  FEDL_CHECK_LT(counters_.size(), kMaxCounters);
  counters_.push_back({name});
  const std::size_t id = counters_.size() - 1;
  by_name_[name] = {'c', id};
  return id;
}

std::size_t MetricsRegistry::register_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    FEDL_CHECK_EQ(it->second.first, 'g') << "metric kind clash for " << name;
    return it->second.second;
  }
  FEDL_CHECK_LT(gauges_.size(), kMaxGauges);
  gauges_.push_back({name});
  const std::size_t id = gauges_.size() - 1;
  by_name_[name] = {'g', id};
  return id;
}

std::size_t MetricsRegistry::register_histogram(const std::string& name,
                                                std::vector<double> bounds) {
  FEDL_CHECK(!bounds.empty()) << "histogram " << name << " needs buckets";
  FEDL_CHECK(std::is_sorted(bounds.begin(), bounds.end()) &&
             std::adjacent_find(bounds.begin(), bounds.end()) == bounds.end())
      << "histogram " << name << " bounds must ascend strictly";
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    FEDL_CHECK_EQ(it->second.first, 'h') << "metric kind clash for " << name;
    const HistogramDef& def = histograms_[it->second.second];
    FEDL_CHECK(def.bounds == bounds)
        << "histogram " << name << " re-registered with different buckets";
    return it->second.second;
  }
  FEDL_CHECK_LT(num_histograms_, kMaxHistograms);
  const std::size_t slots = bounds.size() + 1;
  FEDL_CHECK_LE(arena_used_ + slots, kHistArenaSlots);
  const std::size_t id = num_histograms_++;
  histograms_[id] = {name, std::move(bounds), arena_used_};
  arena_used_ += slots;
  by_name_[name] = {'h', id};
  return id;
}

void MetricsRegistry::counter_add(std::size_t id, std::uint64_t delta) {
  auto& slot = local_shard()->counters[id];
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(std::size_t id, double value) {
  gauge_values_[id].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::histogram_observe(std::size_t id, double value) {
  // No lock: the definition was written before its id reached this thread
  // (through the handle's construction), and never changes afterwards.
  const HistogramDef& def = histograms_[id];
  // "≤ bound" buckets: first bound >= value wins; past-the-end = overflow.
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(def.bounds.begin(),
                                                def.bounds.end(), value) -
                               def.bounds.begin());
  Shard* s = local_shard();
  auto& slot = s->hist_counts[def.arena_offset + bucket];
  slot.store(slot.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  auto& sum = s->hist_sums[id];
  sum.store(sum.load(std::memory_order_relaxed) + value,
            std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& s : shards_)
      total += s->counters[i].load(std::memory_order_relaxed);
    snap.counters[counters_[i].name] = total;
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    snap.gauges[gauges_[i].name] =
        gauge_values_[i].load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < num_histograms_; ++i) {
    const HistogramDef& def = histograms_[i];
    HistogramSnapshot h;
    h.bounds = def.bounds;
    h.counts.assign(def.bounds.size() + 1, 0);
    for (const auto& s : shards_) {
      for (std::size_t b = 0; b < h.counts.size(); ++b)
        h.counts[b] +=
            s->hist_counts[def.arena_offset + b].load(std::memory_order_relaxed);
      h.sum += s->hist_sums[i].load(std::memory_order_relaxed);
    }
    for (std::uint64_t c : h.counts) h.total += c;
    snap.histograms[def.name] = std::move(h);
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : shards_) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& c : s->hist_counts) c.store(0, std::memory_order_relaxed);
    for (auto& c : s->hist_sums) c.store(0.0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxGauges; ++i)
    gauge_values_[i].store(0.0, std::memory_order_relaxed);
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.key(name).value(v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (double b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (std::uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.key("total").value(h.total);
    w.key("sum").value(h.sum);
    w.key("mean").value(h.mean());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace fedl::obs

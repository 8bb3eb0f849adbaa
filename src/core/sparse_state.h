// Pooled sparse per-client state for the selection layer.
//
// At the M = 10⁵–10⁶ roster scale of mobile FL deployments (FedCS's
// many-client setting), any per-epoch structure indexed densely by client id
// dominates both time and memory: only the availability set E_t (and the
// historically touched clients) ever carry information. The two containers
// here give the selection layer O(active) memory and O(1) expected access:
//
//  * IdSlotMap — open-addressed id→slot hash map (power-of-two capacity,
//    linear probing, SplitMix64 finalizer hash) with 8-byte entries: a
//    32-bit id + 1 and a 32-bit slot, so client ids stop at 2³² − 2.
//  * ClientStatePool — the persistent per-client state arena: the learner's
//    estimates and duals plus the fairness quota's participation counts.
//    Misses return a shared default slot (never-seen clients cost nothing);
//    `touch()` allocates a slot on first write.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace fedl::core {

// Open-addressed map from client id to a caller-defined slot index.
// Insertion order assigns slots 0,1,2,… (the caller typically keys a
// parallel arena by them). No erase; clear() empties the whole table.
class IdSlotMap {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  // Largest storable id: an entry keeps id + 1 in 32 bits (0 = empty).
  static constexpr std::size_t kMaxId = 0xFFFFFFFEu;

  // One table cell; public so its 8-byte size can be pinned by tests.
  struct Entry {
    std::uint32_t id_plus1 = 0;  // 0 = empty
    std::uint32_t slot = 0;
  };

  IdSlotMap() : table_(kInitialCapacity) {}

  // Slot for `id`, or npos when absent.
  std::size_t find(std::size_t id) const {
    if (id > kMaxId) return npos;  // cannot have been inserted
    const auto key = static_cast<std::uint32_t>(id + 1);
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash(id) & mask;
    while (true) {
      const Entry& e = table_[i];
      if (e.id_plus1 == 0) return npos;
      if (e.id_plus1 == key) return e.slot;
      i = (i + 1) & mask;
    }
  }

  // Slot for `id`, inserting the next sequential slot index when absent.
  // Returns the slot; sets `inserted` when the id was new.
  std::size_t insert(std::size_t id, bool* inserted = nullptr) {
    FEDL_CHECK_LE(id, kMaxId) << "client id exceeds the 32-bit slot index";
    if ((size_ + 1) * 10 >= table_.size() * 7) rehash(table_.size() * 2);
    const auto key = static_cast<std::uint32_t>(id + 1);
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash(id) & mask;
    while (true) {
      Entry& e = table_[i];
      if (e.id_plus1 == 0) {
        e.id_plus1 = key;
        e.slot = static_cast<std::uint32_t>(size_);
        ++size_;
        if (inserted != nullptr) *inserted = true;
        return e.slot;
      }
      if (e.id_plus1 == key) {
        if (inserted != nullptr) *inserted = false;
        return e.slot;
      }
      i = (i + 1) & mask;
    }
  }

  // O(capacity) wipe; the next insert hands out slot 0 again. Meant for
  // small per-epoch scratch maps, not the persistent pool index.
  void clear() {
    std::fill(table_.begin(), table_.end(), Entry{});
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  std::size_t capacity_bytes() const {
    return table_.size() * sizeof(Entry);
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  static std::size_t hash(std::size_t id) {
    // SplitMix64 finalizer: full-avalanche, so sequential ids spread.
    std::uint64_t z = static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Entry> old = std::move(table_);
    table_.assign(new_capacity, Entry{});
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.id_plus1 == 0) continue;
      std::size_t i = hash(e.id_plus1 - 1) & mask;
      while (table_[i].id_plus1 != 0) i = (i + 1) & mask;
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t size_ = 0;
};

// One pooled slot of selection state per *touched* client (paper symbols:
// fractional memory x̃_k, local accuracy estimate η̂_k, per-iteration loss
// reduction Δ̂_k, dual μ^k of the local-convergence constraint h^k, the
// observation count n_k feeding the width-pruning exploration bonus, and
// the fairness quota's participation counts).
struct ClientLearnerState {
  double xfrac = 0.0;
  double eta = 0.0;
  double delta = 0.0;
  double mu = 0.0;
  // Epochs in which this client produced an η/Δ observation (selected and
  // completed ≥ 1 iteration).
  std::uint32_t seen = 0;
  // Participation (fairness.h): epochs whose non-empty decision offered
  // this client as a candidate, and epochs that selected it.
  std::uint32_t offered = 0;
  std::uint32_t selected = 0;
};

// Arena of ClientLearnerState keyed by client id. Reads of never-touched
// clients return the configured defaults without allocating.
class ClientStatePool {
 public:
  explicit ClientStatePool(ClientLearnerState defaults)
      : defaults_(defaults) {}

  const ClientLearnerState& defaults() const { return defaults_; }

  // Read-only view: the client's slot, or the defaults when never touched.
  const ClientLearnerState& get(std::size_t id) const {
    const std::size_t slot = index_.find(id);
    return slot == IdSlotMap::npos ? defaults_ : slots_[slot];
  }

  bool contains(std::size_t id) const {
    return index_.find(id) != IdSlotMap::npos;
  }

  // Writable slot, allocated (default-initialized) on first touch.
  ClientLearnerState& touch(std::size_t id) {
    bool inserted = false;
    const std::size_t slot = index_.insert(id, &inserted);
    if (inserted) {
      FEDL_CHECK_EQ(slot, slots_.size());
      slots_.push_back(defaults_);
    }
    return slots_[slot];
  }

  // Records one epoch of participation: `offered` were the candidates of a
  // non-empty decision and `selected` ⊆ offered were chosen. Rates read as
  // selected / offered per client (fairness.h).
  void record_participation(const std::vector<std::size_t>& offered,
                            const std::vector<std::size_t>& selected) {
    ++participation_epochs_;
    for (std::size_t id : offered) ++touch(id).offered;
    for (std::size_t id : selected) ++touch(id).selected;
  }

  // Epochs recorded by record_participation().
  std::size_t participation_epochs() const { return participation_epochs_; }

  // Number of clients that own a slot (the "active" roster).
  std::size_t active() const { return slots_.size(); }

  // Resident footprint of the pooled state (arena + index table).
  std::size_t resident_bytes() const {
    return slots_.capacity() * sizeof(ClientLearnerState) +
           index_.capacity_bytes();
  }

 private:
  ClientLearnerState defaults_;
  IdSlotMap index_;
  std::vector<ClientLearnerState> slots_;
  std::size_t participation_epochs_ = 0;
};

}  // namespace fedl::core

// Pooled sparse per-client state for the selection layer.
//
// At the M = 10⁵–10⁶ roster scale of mobile FL deployments (FedCS's
// many-client setting), any per-epoch structure indexed densely by client id
// dominates both time and memory: only the availability set E_t (and the
// historically touched clients) ever carry information. The two types here
// give the selection layer O(active) memory and O(1) expected access:
//
//  * SlotIndex — open-addressed id→slot index (power-of-two capacity,
//    linear probing, SplitMix64 finalizer hash) whose 4-byte cells hold only
//    slot + 1: a probe reads the key from the record the cell names.
//  * ClientStatePool — the persistent per-client records. Every client a
//    decision offered owns a 24 B CandidateRecord (x̃_k, μ^k, its offer
//    count, its id); only clients that were ever selected also own a
//    SelectedRecord (η̂_k, Δ̂_k, their counts). Reads of a client without a
//    record return the priors; the learner resolves each candidate's slot
//    once per decision and hands the slot on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace fedl::core {

// Open-addressed map from client id to a dense slot index 0, 1, 2, … in
// insertion order. A cell stores slot + 1 (0 = empty) and nothing else: the
// caller keeps each slot's id in its own record and passes `id_of(slot)`,
// which every probe and rehash reads. No erase; clear() empties the table.
class SlotIndex {
 public:
  // One table cell: slot + 1, 0 = empty. Public so its size can be pinned.
  using Cell = std::uint32_t;
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;
  // Largest storable id. A cell keeps slot + 1 in 32 bits, so at most
  // 2³² − 1 ids hold a slot: ids 0 … 2³² − 2.
  static constexpr std::size_t kMaxId = 0xFFFFFFFEu;

  // Slot for `id`, or npos when absent.
  template <class IdOf>
  std::uint32_t find(std::size_t id, const IdOf& id_of) const {
    if (id > kMaxId || cells_.empty()) return npos;  // cannot be present
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = hash(id) & mask;; i = (i + 1) & mask) {
      const Cell cell = cells_[i];
      if (cell == 0) return npos;
      if (id_of(cell - 1) == id) return cell - 1;
    }
  }

  // Slot for `id`, inserting slot size() when absent; sets `inserted` when
  // the id was new. The caller must make id_of(slot) return `id` before the
  // next call.
  template <class IdOf>
  std::uint32_t find_or_insert(std::size_t id, const IdOf& id_of,
                               bool* inserted) {
    FEDL_CHECK_LE(id, kMaxId) << "client id exceeds the 32-bit slot index";
    if ((size_ + 1) * 10 >= cells_.size() * 7) grow(id_of);
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = hash(id) & mask;; i = (i + 1) & mask) {
      Cell& cell = cells_[i];
      if (cell == 0) {
        cell = static_cast<Cell>(size_ + 1);
        *inserted = true;
        return static_cast<std::uint32_t>(size_++);
      }
      if (id_of(cell - 1) == id) {
        *inserted = false;
        return cell - 1;
      }
    }
  }

  // O(capacity) wipe; the next insert hands out slot 0 again. Meant for
  // small per-epoch scratch indices, not the persistent pool index.
  void clear() {
    std::fill(cells_.begin(), cells_.end(), 0u);
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  std::size_t capacity_bytes() const {
    return cells_.size() * sizeof(Cell);
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

  // Doubles the table (the first insert allocates it). Slots are dense, so
  // the rehash walks the records in slot order instead of the old cells,
  // and the old table is freed before the new one is allocated.
  template <class IdOf>
  void grow(const IdOf& id_of) {
    const std::size_t capacity =
        cells_.empty() ? kInitialCapacity : cells_.size() * 2;
    std::vector<Cell>().swap(cells_);
    cells_.resize(capacity);
    const std::size_t mask = capacity - 1;
    for (std::size_t slot = 0; slot < size_; ++slot) {
      std::size_t i = hash(id_of(static_cast<std::uint32_t>(slot))) & mask;
      while (cells_[i] != 0) i = (i + 1) & mask;
      cells_[i] = static_cast<Cell>(slot + 1);
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

// Per-candidate record, owned by every client a decision has offered
// (paper symbols: fractional memory x̃_k and the dual μ^k of the
// local-convergence constraint h^k). `id` is the key SlotIndex reads.
// Until the client's first selection `offered_or_link` counts the epochs
// whose non-empty decision offered it as a candidate (fairness.h); from
// then on the count lives in its SelectedRecord and the field holds
// kLinked | that record's slot.
struct CandidateRecord {
  static constexpr std::uint32_t kLinked = 0x80000000u;
  double xfrac = 0.0;
  double mu = 0.0;
  std::uint32_t offered_or_link = 0;
  std::uint32_t id = 0;
};

// Per-selected record, owned only by clients that were ever selected or
// observed (paper symbols: local accuracy estimate η̂_k and per-iteration
// loss reduction Δ̂_k), with the observation count n_k of the width-explore
// bonus and the participation counts.
struct SelectedRecord {
  double eta = 0.0;
  double delta = 0.0;
  // Epochs in which this client produced an η/Δ observation (selected and
  // completed ≥ 1 iteration).
  std::uint32_t seen = 0;
  // Epochs whose non-empty decision selected this client, and (moved here
  // from the candidate record at the first selection) offered it.
  std::uint32_t selected = 0;
  std::uint32_t offered = 0;
};

// The selection layer's per-client records, keyed by client id through one
// SlotIndex. Slots are stable handles: growth moves records, never slots.
class ClientStatePool {
 public:
  static constexpr std::uint32_t npos = SlotIndex::npos;

  // Priors of a client without records: x̃, η̂, Δ̂ (μ^k and the counts 0).
  ClientStatePool(double xfrac, double eta, double delta)
      : candidate_prior_{xfrac, 0.0, 0, 0}, selected_prior_{eta, delta} {}

  // Slot of `id`'s candidate record, or npos when it holds none.
  std::uint32_t find(std::size_t id) const {
    return index_.find(id, candidate_id());
  }

  // Slot of `id`'s candidate record, allocated with the priors when absent.
  std::uint32_t resolve(std::size_t id) {
    bool inserted = false;
    const std::uint32_t slot = index_.find_or_insert(id, candidate_id(),
                                                     &inserted);
    if (inserted) {
      candidates_.push_back(candidate_prior_);
      candidates_.back().id = static_cast<std::uint32_t>(id);
    }
    return slot;
  }

  // The candidate record at `slot`, or the priors when slot == npos.
  const CandidateRecord& candidate(std::uint32_t slot) const {
    return slot == npos ? candidate_prior_ : candidates_[slot];
  }
  // Writable candidate record; `slot` must hold one.
  CandidateRecord& candidate_at(std::uint32_t slot) {
    return candidates_[slot];
  }

  // The estimates of the client at `slot`: its selected record, or the
  // priors when it has none (or slot == npos).
  const SelectedRecord& estimates(std::uint32_t slot) const {
    if (slot == npos) return selected_prior_;
    const std::uint32_t link = candidates_[slot].offered_or_link;
    return linked(link) ? selected_[link & ~CandidateRecord::kLinked]
                        : selected_prior_;
  }

  // Writable selected record of the client at `slot`, allocated with the
  // priors on first use; the offer count moves into it.
  SelectedRecord& selected_at(std::uint32_t slot) {
    std::uint32_t& link = candidates_[slot].offered_or_link;
    if (!linked(link)) {
      FEDL_CHECK_LT(selected_.size(), std::size_t{CandidateRecord::kLinked})
          << "selected records exceed the 31-bit link";
      selected_.push_back(selected_prior_);
      selected_.back().offered = link;
      link = static_cast<std::uint32_t>(selected_.size() - 1) |
             CandidateRecord::kLinked;
    }
    return selected_[link & ~CandidateRecord::kLinked];
  }

  // Epochs recorded as offering the client at `slot`.
  std::uint32_t offered(std::uint32_t slot) const {
    if (slot == npos) return 0;
    const std::uint32_t link = candidates_[slot].offered_or_link;
    return linked(link) ? selected_[link & ~CandidateRecord::kLinked].offered
                        : link;
  }

  // Records one epoch of participation: `offered` holds the slots of a
  // non-empty decision's candidates, and `picked` the positions in it of
  // the selected ones. Rates read as selected / offered (fairness.h).
  void record_participation(const std::vector<std::uint32_t>& offered,
                            const std::vector<std::size_t>& picked) {
    ++participation_epochs_;
    for (std::uint32_t slot : offered) {
      std::uint32_t& link = candidates_[slot].offered_or_link;
      if (linked(link)) {
        ++selected_[link & ~CandidateRecord::kLinked].offered;
      } else {
        FEDL_CHECK_LT(link + 1, CandidateRecord::kLinked)
            << "offer count exceeds 31 bits";
        ++link;
      }
    }
    for (std::size_t i : picked) ++selected_at(offered[i]).selected;
  }

  // Epochs recorded by record_participation().
  std::size_t participation_epochs() const { return participation_epochs_; }

  // Number of clients that own a candidate record (the "active" roster).
  std::size_t active() const { return candidates_.size(); }
  // Number of clients that also own a selected record.
  std::size_t selected_records() const { return selected_.size(); }

  // Allocated capacity of both record arenas and the index: an upper bound
  // on their resident pages.
  std::size_t resident_bytes() const {
    return candidates_.capacity() * sizeof(CandidateRecord) +
           selected_.capacity() * sizeof(SelectedRecord) +
           index_.capacity_bytes();
  }

 private:
  static bool linked(std::uint32_t offered_or_link) {
    return (offered_or_link & CandidateRecord::kLinked) != 0;
  }

  // The pool index's key: the id a candidate record stores.
  struct CandidateId {
    const std::vector<CandidateRecord>* records;
    std::size_t operator()(std::uint32_t slot) const {
      return (*records)[slot].id;
    }
  };
  CandidateId candidate_id() const { return CandidateId{&candidates_}; }

  CandidateRecord candidate_prior_;
  SelectedRecord selected_prior_;
  SlotIndex index_;
  std::vector<CandidateRecord> candidates_;
  std::vector<SelectedRecord> selected_;
  std::size_t participation_epochs_ = 0;
};

}  // namespace fedl::core

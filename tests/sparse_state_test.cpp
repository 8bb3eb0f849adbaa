// Tests for the compact selection-state pool (core/sparse_state.h): the
// 4-byte SlotIndex cell keyed through its records, the 32-bit id/slot
// narrowing, clear() reuse, the two record kinds and their per-client
// footprint, the 2³² − 1 roster limit, and FedL strategies over rosters far
// beyond what any M-length array could hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/fedl_strategy.h"
#include "core/online_learner.h"
#include "core/sparse_state.h"
#include "sim/environment.h"

namespace fedl::core {
namespace {

static_assert(sizeof(SlotIndex::Cell) == 4,
              "index cells hold only a 32-bit slot + 1");
static_assert(sizeof(CandidateRecord) == 24,
              "a candidate record holds x̃, μ, the offer count and the id");
static_assert(sizeof(SelectedRecord) <= 32,
              "a selected record holds η̂, Δ̂ and three counts");

// Distinct ids spread over the whole 32-bit range: 0 and kMaxId first, then
// images of an odd multiplier (a bijection mod 2³²), skipping those two and
// the out-of-range 2³² − 1.
std::vector<std::size_t> spread_ids(std::size_t n) {
  std::vector<std::size_t> ids{0, SlotIndex::kMaxId};
  for (std::uint64_t i = 1; ids.size() < n; ++i) {
    const auto id = static_cast<std::size_t>(
        static_cast<std::uint32_t>(i * 2654435761ULL));
    if (id != 0 && id != SlotIndex::kMaxId && id != SlotIndex::kMaxId + 1)
      ids.push_back(id);
  }
  return ids;
}

// A SlotIndex over a plain id arena: slot s holds arena[s].
struct IndexedIds {
  SlotIndex index;
  std::vector<std::uint32_t> arena;

  std::size_t id_of(std::uint32_t slot) const { return arena[slot]; }
  std::uint32_t find(std::size_t id) const {
    return index.find(id, [this](std::uint32_t s) { return id_of(s); });
  }
  std::uint32_t insert(std::size_t id, bool* inserted) {
    const std::uint32_t slot = index.find_or_insert(
        id, [this](std::uint32_t s) { return id_of(s); }, inserted);
    if (*inserted) arena.push_back(static_cast<std::uint32_t>(id));
    return slot;
  }
};

TEST(SlotIndex, InsertAndFindAcrossEveryRehash) {
  constexpr std::size_t kIds = 100000;
  const std::vector<std::size_t> ids = spread_ids(kIds);
  IndexedIds map;
  EXPECT_EQ(map.index.capacity_bytes(), 0u);  // construction allocates none
  EXPECT_EQ(map.find(0), SlotIndex::npos);
  std::size_t rehashes = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t before = map.index.capacity_bytes();
    bool inserted = false;
    ASSERT_EQ(map.insert(ids[i], &inserted), i);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(map.index.size(), i + 1);
    ASSERT_EQ(map.find(ids[i]), i);
    if (map.index.capacity_bytes() != before) {
      // Just past a rehash boundary: every earlier id must have moved with
      // its slot.
      ++rehashes;
      for (std::size_t j = 0; j <= i; ++j) ASSERT_EQ(map.find(ids[j]), j);
    }
  }
  // The first insert allocates 64 cells; 12 doublings reach 2¹⁸ cells.
  EXPECT_EQ(rehashes, 13u);
  // Reinserting hands back the same slot; an id never inserted misses.
  bool inserted = true;
  EXPECT_EQ(map.insert(SlotIndex::kMaxId, &inserted), 1u);
  EXPECT_FALSE(inserted);
  const auto absent = static_cast<std::size_t>(
      static_cast<std::uint32_t>(3 * kIds * 2654435761ULL));
  ASSERT_EQ(std::count(ids.begin(), ids.end(), absent), 0);
  EXPECT_EQ(map.find(absent), SlotIndex::npos);
  EXPECT_EQ(map.index.size(), kIds);
  EXPECT_EQ(map.index.capacity_bytes(), (std::size_t{1} << 18) * 4);
}

TEST(SlotIndex, IdsPastTheIndexRangeMissAndCannotBeInserted) {
  // 44 ids fill the initial 64-cell table just below its load limit, so
  // probe runs are long: an id j + w·2³² shares j's low 32 bits and must
  // not be found on j's run.
  constexpr std::size_t kIds = 44;
  IndexedIds map;
  bool inserted = false;
  for (std::size_t id = 0; id < kIds; ++id) map.insert(id, &inserted);
  ASSERT_EQ(map.index.capacity_bytes(), 64u * 4);
  for (std::size_t wrap = 1; wrap <= 16; ++wrap)
    for (std::size_t id = 0; id < kIds; ++id)
      ASSERT_EQ(map.find((wrap << 32) + id), SlotIndex::npos)
          << wrap << ":" << id;
  // 2³² − 1 would need slot + 1 = 2³² if all 2³² ids held a slot.
  EXPECT_EQ(map.find(SlotIndex::kMaxId + 1), SlotIndex::npos);
  EXPECT_THROW(map.insert(SlotIndex::kMaxId + 1, &inserted), CheckError);
  EXPECT_THROW(map.insert(std::size_t{1} << 32, &inserted), CheckError);
  EXPECT_EQ(map.index.size(), kIds);
  EXPECT_EQ(map.find(0), 0u);
}

TEST(SlotIndex, ClearRestartsSlotsAtZero) {
  IndexedIds map;
  bool inserted = false;
  for (std::size_t id = 0; id < 200; ++id) map.insert(id * 7 + 3, &inserted);
  const std::size_t capacity = map.index.capacity_bytes();
  map.index.clear();
  EXPECT_EQ(map.index.size(), 0u);
  EXPECT_EQ(map.index.capacity_bytes(), capacity);  // grow-only scratch
  for (std::size_t id = 0; id < 200; ++id)
    EXPECT_EQ(map.find(id * 7 + 3), SlotIndex::npos) << id;
  // Reinsert a different order over a fresh arena: slots are 0, 1, 2, …
  // again.
  map.arena.clear();
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(map.insert(1000 - i, &inserted), i);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.find(1000), 0u);
  EXPECT_EQ(map.find(951), 49u);
  EXPECT_EQ(map.find(3), SlotIndex::npos);
}

TEST(ClientStatePool, FootprintPerActiveClient) {
  ClientStatePool pool(0.5, 0.5, 0.1);
  EXPECT_EQ(pool.resident_bytes(), 0u);  // construction allocates nothing
  constexpr std::size_t kTouches = 100000;
  for (std::size_t i = 0; i < kTouches; ++i)
    pool.candidate_at(pool.resolve(i * 40000 + 17)).xfrac = 1.0;
  ASSERT_EQ(pool.active(), kTouches);
  EXPECT_EQ(pool.selected_records(), 0u);
  const double per_client = static_cast<double>(pool.resident_bytes()) /
                            static_cast<double>(pool.active());
  EXPECT_LE(per_client, 48.0);
  // Misses read the priors and allocate nothing.
  EXPECT_EQ(pool.find(1), ClientStatePool::npos);
  EXPECT_EQ(pool.candidate(pool.find(1)).xfrac, 0.5);
  EXPECT_EQ(pool.estimates(pool.find(1)).delta, 0.1);
  EXPECT_EQ(pool.active(), kTouches);
  // A candidate that was never selected reads the estimate priors too.
  EXPECT_EQ(pool.estimates(pool.find(17)).eta, 0.5);
  EXPECT_EQ(pool.candidate(pool.find(17)).xfrac, 1.0);
}

TEST(ClientStatePool, ParticipationCountsLiveInTheSlots) {
  ClientStatePool pool(0.5, 0.5, 0.1);
  const std::vector<std::uint32_t> slots{pool.resolve(5), pool.resolve(9)};
  // Client 5 is offered three times before its first selection; its offer
  // count then moves into the selected record it gets.
  pool.record_participation(slots, {1});
  pool.record_participation(slots, {1});
  pool.record_participation(slots, {});
  EXPECT_EQ(pool.offered(slots[0]), 3u);
  EXPECT_EQ(pool.selected_records(), 1u);  // client 9 only
  pool.record_participation(slots, {0, 1});
  EXPECT_EQ(pool.active(), 2u);  // candidates already held records
  EXPECT_EQ(pool.selected_records(), 2u);
  EXPECT_EQ(pool.participation_epochs(), 4u);
  EXPECT_EQ(pool.offered(slots[0]), 4u);
  EXPECT_EQ(pool.estimates(slots[0]).selected, 1u);
  EXPECT_EQ(pool.offered(slots[1]), 4u);
  EXPECT_EQ(pool.estimates(slots[1]).selected, 3u);
  EXPECT_EQ(pool.offered(pool.find(7)), 0u);
  EXPECT_EQ(pool.estimates(pool.find(7)).selected, 0u);
  // The selected record starts from the priors.
  EXPECT_EQ(pool.estimates(slots[0]).eta, 0.5);
  EXPECT_EQ(pool.estimates(slots[0]).seen, 0u);
}

TEST(SparseRoster, LearnerRosterMustFitTheIndex) {
  EXPECT_THROW(OnlineLearner(std::size_t{1} << 32, LearnerConfig{}),
               CheckError);
  // The largest roster the 32-bit index takes still constructs, in O(1).
  const OnlineLearner ok(SlotIndex::kMaxId + 1, LearnerConfig{});
  EXPECT_EQ(ok.active_clients(), 0u);
  EXPECT_EQ(ok.resident_bytes(), 0u);
  EXPECT_EQ(ok.x_fraction(SlotIndex::kMaxId), 0.5);
}

// One FedL epoch over a lazy roster with a synthetic outcome in which every
// selected client completes (as bench/fig8_scale_sweep). Returns the
// decision's candidates.
std::vector<std::size_t> run_epoch(sim::EdgeEnvironment& env,
                                   FedLStrategy& strategy,
                                   BudgetLedger& ledger) {
  const sim::EpochContext& ctx = env.advance_epoch();
  const Decision dec = strategy.decide(ctx, ledger);
  fl::EpochOutcome out;
  out.epoch = ctx.epoch;
  out.selected = dec.selected;
  out.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
  for (std::size_t i = 0; i < dec.selected.size(); ++i) {
    out.cost += ctx.find(dec.selected[i])->cost;
    out.client_eta.push_back(0.4 + 0.2 * static_cast<double>(i % 3));
    out.client_loss_reduction.push_back(0.05);
    out.client_completed_iters.push_back(out.num_iterations);
  }
  out.train_loss_all = 1.0;
  ledger.charge(out.cost);
  strategy.observe(ctx, dec, out);
  return strategy.last_fraction().ids;
}

TEST(SparseRoster, FourBillionClientLazyRosterRunsFiveEpochs) {
  // An M-length count array would need tens of gigabytes here; the
  // strategy's state must stay O(clients ever offered).
  constexpr std::size_t kClients = 4000000000ULL;
  constexpr std::size_t kNMin = 8;
  sim::EnvironmentSpec spec;
  spec.lazy_sampling = true;
  spec.num_clients = kClients;
  spec.expected_participants = kNMin;
  spec.device.availability_prob = 200.0 / static_cast<double>(kClients);
  spec.device.seed = 5;
  sim::EdgeEnvironment env(spec);

  FedLConfig fc;
  fc.learner.n_min = kNMin;
  FedLStrategy strategy(kClients, fc);
  BudgetLedger ledger(1e15);
  std::size_t offered = 0;
  std::size_t high_ids = 0;
  for (int t = 0; t < 5; ++t) {
    const sim::EpochContext& ctx = env.advance_epoch();
    ASSERT_GE(ctx.available.size(), kNMin);
    const Decision dec = strategy.decide(ctx, ledger);
    ASSERT_GE(dec.selected.size(), kNMin);
    offered += strategy.last_fraction().ids.size();
    fl::EpochOutcome out;
    out.epoch = ctx.epoch;
    out.selected = dec.selected;
    out.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
    for (std::size_t id : dec.selected) {
      ASSERT_LT(id, kClients);
      high_ids += id > 0x7FFFFFFFu ? 1 : 0;
      out.cost += ctx.find(id)->cost;
      out.client_eta.push_back(0.5);
      out.client_loss_reduction.push_back(0.05);
      out.client_completed_iters.push_back(out.num_iterations);
      const ClientStatePool& pool = strategy.participation();
      EXPECT_GE(pool.estimates(pool.find(id)).selected, 1u);
    }
    out.train_loss_all = 1.0;
    ledger.charge(out.cost);
    strategy.observe(ctx, dec, out);
  }
  EXPECT_EQ(strategy.participation().participation_epochs(), 5u);
  EXPECT_GT(high_ids, 0u);  // ids above 2³¹ went through the 32-bit index
  EXPECT_LE(strategy.learner().active_clients(), offered);
  EXPECT_LT(strategy.learner().resident_bytes(), std::size_t{1} << 20);
}

TEST(SparseRoster, MillionClientRosterFootprintPerActiveClient) {
  // select_1m's regime: M = 10⁶ with |E_t| ≈ 1000 online per epoch, here
  // over a 100-epoch horizon (~95,000 distinct clients offered). Every
  // candidate holds a 24 B record and a 4-byte index cell; only the ~30
  // clients selected per epoch add a selected record. resident_bytes()
  // counts capacity, which the arenas and the index grow by doubling, so
  // the bytes per client swing with where the roster sits between two
  // doublings: this horizon fills the candidate arena about as full (~72%)
  // as select_1m's 1500 epochs do (~74%, 778,041 of 2²⁰ records).
  constexpr std::size_t kClients = 1000000;
  constexpr std::size_t kEpochs = 100;
  sim::EnvironmentSpec spec;
  spec.lazy_sampling = true;
  spec.num_clients = kClients;
  spec.expected_participants = 8;
  spec.device.availability_prob = 1000.0 / static_cast<double>(kClients);
  spec.device.seed = 38;
  sim::EdgeEnvironment env(spec);

  FedLConfig fc;
  fc.learner.n_min = 8;
  FedLStrategy strategy(kClients, fc);
  BudgetLedger ledger(1e15);
  std::vector<std::size_t> offered;
  for (std::size_t t = 0; t < kEpochs; ++t) {
    const std::vector<std::size_t> ids = run_epoch(env, strategy, ledger);
    ASSERT_GT(ids.size(), 900u);
    offered.insert(offered.end(), ids.begin(), ids.end());
  }
  std::sort(offered.begin(), offered.end());
  offered.erase(std::unique(offered.begin(), offered.end()), offered.end());
  const OnlineLearner& learner = strategy.learner();
  EXPECT_EQ(learner.active_clients(), offered.size());
  const double per_client = static_cast<double>(learner.resident_bytes()) /
                            static_cast<double>(learner.active_clients());
  EXPECT_LE(per_client, 48.0);
  EXPECT_LT(strategy.participation().selected_records(),
            offered.size() / 10);
}

}  // namespace
}  // namespace fedl::core

// Tests for the compact selection-state pool (core/sparse_state.h): the
// 8-byte IdSlotMap entry with its 32-bit id/slot narrowing, clear() reuse,
// the per-client footprint, the 2³² − 1 roster limit, and a FedL strategy
// over a roster far beyond what any M-length array could hold.
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

static_assert(sizeof(IdSlotMap::Entry) == 8,
              "index entries are a 32-bit id + 1 and a 32-bit slot");
static_assert(sizeof(ClientLearnerState) <= 48,
              "a pool slot holds the estimates, the dual and three counts");

// Distinct ids spread over the whole 32-bit range: 0 and kMaxId first, then
// images of an odd multiplier (a bijection mod 2³²), skipping those two and
// the out-of-range 2³² − 1.
std::vector<std::size_t> spread_ids(std::size_t n) {
  std::vector<std::size_t> ids{0, IdSlotMap::kMaxId};
  for (std::uint64_t i = 1; ids.size() < n; ++i) {
    const auto id = static_cast<std::size_t>(
        static_cast<std::uint32_t>(i * 2654435761ULL));
    if (id != 0 && id != IdSlotMap::kMaxId && id != IdSlotMap::kMaxId + 1)
      ids.push_back(id);
  }
  return ids;
}

TEST(IdSlotMap, InsertAndFindAcrossEveryRehash) {
  constexpr std::size_t kIds = 100000;
  const std::vector<std::size_t> ids = spread_ids(kIds);
  IdSlotMap map;
  std::size_t rehashes = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t before = map.capacity_bytes();
    bool inserted = false;
    ASSERT_EQ(map.insert(ids[i], &inserted), i);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(map.size(), i + 1);
    ASSERT_EQ(map.find(ids[i]), i);
    if (map.capacity_bytes() != before) {
      // Just past a rehash boundary: every earlier id must have moved with
      // its slot.
      ++rehashes;
      for (std::size_t j = 0; j <= i; ++j) ASSERT_EQ(map.find(ids[j]), j);
    }
  }
  EXPECT_GE(rehashes, 12u);  // 64 entries → 2¹⁸ entries
  // Reinserting hands back the same slot; an id never inserted misses.
  bool inserted = true;
  EXPECT_EQ(map.insert(IdSlotMap::kMaxId, &inserted), 1u);
  EXPECT_FALSE(inserted);
  const auto absent = static_cast<std::size_t>(
      static_cast<std::uint32_t>(3 * kIds * 2654435761ULL));
  ASSERT_EQ(std::count(ids.begin(), ids.end(), absent), 0);
  EXPECT_EQ(map.find(absent), IdSlotMap::npos);
  EXPECT_EQ(map.size(), kIds);
  EXPECT_EQ(map.capacity_bytes(), (std::size_t{1} << 18) * 8);
}

TEST(IdSlotMap, IdsPastTheIndexRangeMissAndCannotBeInserted) {
  // 44 ids fill the initial 64-entry table just below its load limit, so
  // probe runs are long: an id j + w·2³² shares j's 32-bit key and would be
  // found on j's run if find() did not reject out-of-range ids up front.
  constexpr std::size_t kIds = 44;
  IdSlotMap map;
  for (std::size_t id = 0; id < kIds; ++id) map.insert(id);
  ASSERT_EQ(map.capacity_bytes(), 64u * 8);
  for (std::size_t wrap = 1; wrap <= 16; ++wrap)
    for (std::size_t id = 0; id < kIds; ++id)
      ASSERT_EQ(map.find((wrap << 32) + id), IdSlotMap::npos)
          << wrap << ":" << id;
  // 2³² − 1 would store the empty key 0.
  EXPECT_EQ(map.find(IdSlotMap::kMaxId + 1), IdSlotMap::npos);
  EXPECT_THROW(map.insert(IdSlotMap::kMaxId + 1), CheckError);
  EXPECT_THROW(map.insert(std::size_t{1} << 32), CheckError);
  EXPECT_EQ(map.size(), kIds);
  EXPECT_EQ(map.find(0), 0u);
}

TEST(IdSlotMap, ClearRestartsSlotsAtZero) {
  IdSlotMap map;
  for (std::size_t id = 0; id < 200; ++id) map.insert(id * 7 + 3);
  const std::size_t capacity = map.capacity_bytes();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity_bytes(), capacity);  // grow-only scratch
  for (std::size_t id = 0; id < 200; ++id)
    EXPECT_EQ(map.find(id * 7 + 3), IdSlotMap::npos) << id;
  // Reinsert a different order: slots are 0, 1, 2, … again.
  for (std::size_t i = 0; i < 50; ++i) {
    bool inserted = false;
    EXPECT_EQ(map.insert(1000 - i, &inserted), i);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.find(1000), 0u);
  EXPECT_EQ(map.find(951), 49u);
  EXPECT_EQ(map.find(3), IdSlotMap::npos);
}

TEST(ClientStatePool, FootprintPerActiveClient) {
  ClientStatePool pool(ClientLearnerState{0.5, 0.5, 0.1, 0.0});
  constexpr std::size_t kTouches = 100000;
  for (std::size_t i = 0; i < kTouches; ++i)
    pool.touch(i * 40000 + 17).xfrac = 1.0;
  ASSERT_EQ(pool.active(), kTouches);
  const double per_client = static_cast<double>(pool.resident_bytes()) /
                            static_cast<double>(pool.active());
  EXPECT_LE(per_client, 96.0);
  // Misses read the defaults and allocate nothing.
  EXPECT_EQ(pool.get(1).xfrac, 0.5);
  EXPECT_EQ(pool.active(), kTouches);
}

TEST(ClientStatePool, ParticipationCountsLiveInTheSlots) {
  ClientStatePool pool(ClientLearnerState{});
  pool.touch(5);
  pool.touch(9);
  pool.record_participation({5, 9}, {9});
  pool.record_participation({5, 9}, {5, 9});
  EXPECT_EQ(pool.active(), 2u);  // candidates already held slots
  EXPECT_EQ(pool.participation_epochs(), 2u);
  EXPECT_EQ(pool.get(5).offered, 2u);
  EXPECT_EQ(pool.get(5).selected, 1u);
  EXPECT_EQ(pool.get(9).selected, 2u);
  EXPECT_EQ(pool.get(7).offered, 0u);
}

TEST(SparseRoster, LearnerRosterMustFitTheIndex) {
  EXPECT_THROW(OnlineLearner(std::size_t{1} << 32, LearnerConfig{}),
               CheckError);
  // The largest roster the 32-bit index takes still constructs, in O(1).
  const OnlineLearner ok(IdSlotMap::kMaxId + 1, LearnerConfig{});
  EXPECT_EQ(ok.active_clients(), 0u);
  EXPECT_EQ(ok.x_fraction(IdSlotMap::kMaxId), 0.5);
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
      EXPECT_GE(strategy.participation().get(id).selected, 1u);
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

}  // namespace
}  // namespace fedl::core

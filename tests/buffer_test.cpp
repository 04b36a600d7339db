// Unit tests: the BufferStore storage layer, budget admission/eviction, and
// all five retention policies against a fake environment.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "buffer/factory.h"
#include "proto/codec.h"
#include "test_env.h"

namespace rrmp::buffer {
namespace {

using rrmp::testing::FakePolicyEnv;
using rrmp::testing::frame_budget;
using rrmp::testing::make_data;

template <typename Policy, typename... Args>
std::unique_ptr<BufferStore> make_store_of(FakePolicyEnv& env,
                                           BufferBudget budget,
                                           Args&&... args) {
  auto store = std::make_unique<BufferStore>(
      std::make_unique<Policy>(std::forward<Args>(args)...), budget);
  store->bind(&env);
  return store;
}

// ------------------------------------------------------------- store core ----

TEST(BufferStoreTest, StoreGetHasAndAccounting) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  proto::Data d = make_data(1, 1, 100);
  EXPECT_EQ(s->store(d), Admission::kStored);
  EXPECT_TRUE(s->has(d.id));
  EXPECT_EQ(s->count(), 1u);
  // One definition of "bytes": the wire-encoded Data frame, exactly what
  // the traffic stats would charge for this message.
  EXPECT_EQ(s->bytes(), proto::encoded_size(d));
  auto got = s->get(d.id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, d.payload);
  EXPECT_FALSE(s->get(MessageId{9, 9}).has_value());
}

TEST(BufferStoreTest, DuplicateStoreIgnored) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  EXPECT_EQ(s->store(make_data(1, 1)), Admission::kStored);
  EXPECT_EQ(s->store(make_data(1, 1)), Admission::kDuplicate);
  EXPECT_EQ(s->count(), 1u);
  EXPECT_EQ(s->stats().stored, 1u);
}

TEST(BufferStoreTest, ForceDiscardRemovesAndCounts) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  proto::Data d = make_data(1, 1, 64);
  s->store(d);
  env.advance(Duration::millis(3));
  s->force_discard(d.id);
  EXPECT_FALSE(s->has(d.id));
  EXPECT_EQ(s->bytes(), 0u);
  EXPECT_EQ(s->stats().discarded, 1u);
  EXPECT_EQ(s->stats().total_buffer_time, Duration::millis(3));
}

TEST(BufferStoreTest, PeakTracking) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  for (std::uint64_t q = 1; q <= 5; ++q) s->store(make_data(1, q, 10));
  std::size_t one = proto::encoded_size(make_data(1, 1, 10));
  s->force_discard(MessageId{1, 1});
  EXPECT_EQ(s->stats().peak_count, 5u);
  EXPECT_EQ(s->stats().peak_bytes, 5 * one);
  EXPECT_EQ(s->count(), 4u);
}

TEST(BufferStoreTest, ObserverSeesLifecycle) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(
      env, {}, TwoPhaseParams{Duration::millis(10), 10.0, Duration::infinite()});
  std::vector<std::pair<BufferEvent, bool>> events;
  s->set_observer([&](const MessageId&, BufferEvent ev, bool lt) {
    events.emplace_back(ev, lt);
  });
  s->store(make_data(1, 1));
  env.advance(Duration::millis(50));  // idle; C/n = 1.0 -> always promoted
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, BufferEvent::kStored);
  EXPECT_EQ(events[1].first, BufferEvent::kPromotedLongTerm);
  EXPECT_TRUE(events[1].second);
}

TEST(BufferStoreTest, BindTwiceThrows) {
  FakePolicyEnv env;
  BufferStore s(std::make_unique<BufferEverythingPolicy>());
  s.bind(&env);
  EXPECT_THROW(s.bind(&env), std::logic_error);
  BufferStore q(std::make_unique<BufferEverythingPolicy>());
  EXPECT_THROW(q.bind(nullptr), std::invalid_argument);
  EXPECT_THROW(BufferStore(nullptr), std::invalid_argument);
}

TEST(BufferStoreTest, EntriesIterateInIdOrder) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  s->store(make_data(2, 5));
  s->store(make_data(1, 9));
  s->store(make_data(1, 2));
  s->store(make_data(2, 1));
  std::vector<MessageId> seen;
  s->for_each_entry([&](const BufferStore::EntryView& e) {
    seen.push_back(e.id);
  });
  std::vector<MessageId> want = {{1, 2}, {1, 9}, {2, 1}, {2, 5}};
  EXPECT_EQ(seen, want);
}

// --------------------------------------------------------- budget/eviction ----

TEST(BufferBudgetTest, EvictsToAdmitWhenOverBytes) {
  FakePolicyEnv env;
  std::size_t one = proto::encoded_size(make_data(1, 1, 64));
  auto s = make_store_of<BufferEverythingPolicy>(env, frame_budget(3, 64));
  std::vector<std::pair<MessageId, BufferEvent>> events;
  s->set_observer([&](const MessageId& id, BufferEvent ev, bool) {
    events.emplace_back(id, ev);
  });
  for (std::uint64_t q = 1; q <= 3; ++q) s->store(make_data(1, q, 64));
  EXPECT_EQ(s->count(), 3u);
  EXPECT_EQ(s->store(make_data(1, 4, 64)), Admission::kStored);
  // Same age, same phase: the deterministic tie-break evicts the smallest id.
  EXPECT_FALSE(s->has(MessageId{1, 1}));
  EXPECT_TRUE(s->has(MessageId{1, 4}));
  EXPECT_EQ(s->count(), 3u);
  EXPECT_LE(s->bytes(), 3 * one);
  EXPECT_EQ(s->stats().evicted, 1u);
  EXPECT_EQ(s->stats().discarded, 0u);
  // Observer saw the eviction before the new store.
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[events.size() - 2],
            (std::pair<MessageId, BufferEvent>{{1, 1}, BufferEvent::kEvicted}));
  EXPECT_EQ(events.back(),
            (std::pair<MessageId, BufferEvent>{{1, 4}, BufferEvent::kStored}));
}

TEST(BufferBudgetTest, TwoFrameBudgetKeepsTheNewestTwo) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, frame_budget(2));
  for (std::uint64_t q = 1; q <= 5; ++q) s->store(make_data(1, q));
  EXPECT_EQ(s->count(), 2u);
  EXPECT_EQ(s->stats().evicted, 3u);
  EXPECT_TRUE(s->has(MessageId{1, 4}));
  EXPECT_TRUE(s->has(MessageId{1, 5}));
}

TEST(BufferBudgetTest, MessageLargerThanWholeBudgetRejected) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, BufferBudget{64});
  s->store(make_data(1, 1, 16));
  std::size_t before = s->bytes();
  std::vector<BufferEvent> events;
  s->set_observer([&](const MessageId&, BufferEvent ev, bool) {
    events.push_back(ev);
  });
  EXPECT_EQ(s->store(make_data(1, 2, 4096)), Admission::kRejected);
  // Nothing was stored AND nothing already buffered was sacrificed for a
  // message that could never fit.
  EXPECT_FALSE(s->has(MessageId{1, 2}));
  EXPECT_TRUE(s->has(MessageId{1, 1}));
  EXPECT_EQ(s->bytes(), before);
  EXPECT_EQ(s->stats().rejected, 1u);
  EXPECT_EQ(s->stats().evicted, 0u);
  EXPECT_TRUE(events.empty());
}

TEST(BufferBudgetTest, EvictionPrefersShortTermLeastRecentlyActive) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, frame_budget(3));
  s->store(make_data(1, 1));
  s->promote_long_term(MessageId{1, 1});  // recovery capital: evicted last
  env.advance(Duration::millis(1));
  s->store(make_data(1, 2));  // short-term, oldest activity
  env.advance(Duration::millis(1));
  s->store(make_data(1, 3));  // short-term, fresher
  s->store(make_data(1, 4));
  EXPECT_FALSE(s->has(MessageId{1, 2}));  // LRU short-term went first
  EXPECT_TRUE(s->has(MessageId{1, 1}));   // long-term survives
  EXPECT_TRUE(s->has(MessageId{1, 3}));
  EXPECT_TRUE(s->has(MessageId{1, 4}));
}

/// A full five-frame store for the multi-victim cases: long-term (1,1),
/// then short-term (1,2) at 1 ms, (1,3) and (1,4) at 2 ms and (1,5) at
/// 3 ms. Returns the kEvicted ids of one admission that needs three frames
/// freed.
std::vector<MessageId> evictions_of_three_frame_admission(FakePolicyEnv& env,
                                                          BufferStore& s) {
  std::size_t one = proto::encoded_size(make_data(1, 1, 64));
  EXPECT_EQ(s.budget().max_bytes, 5 * one);
  s.store(make_data(1, 1, 64));
  s.promote_long_term(MessageId{1, 1});
  env.advance(Duration::millis(1));
  s.store(make_data(1, 2, 64));
  env.advance(Duration::millis(1));
  s.store(make_data(1, 3, 64));
  s.store(make_data(1, 4, 64));
  env.advance(Duration::millis(1));
  s.store(make_data(1, 5, 64));
  EXPECT_EQ(s.count(), 5u);
  // Larger than two frames, at most three: exactly three must go.
  proto::Data big = make_data(1, 6, 2 * one);
  EXPECT_GT(proto::encoded_size(big), 2 * one);
  EXPECT_LE(proto::encoded_size(big), 3 * one);
  std::vector<MessageId> evicted;
  s.set_observer([&](const MessageId& id, BufferEvent ev, bool) {
    if (ev == BufferEvent::kEvicted) evicted.push_back(id);
  });
  EXPECT_EQ(s.store(big), Admission::kStored);
  EXPECT_LE(s.bytes(), 5 * one);
  return evicted;
}

TEST(BufferBudgetTest, MultiVictimEvictionFollowsExpendabilityOrder) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, frame_budget(5, 64));
  std::vector<MessageId> evicted = evictions_of_three_frame_admission(env, *s);
  // Short-term before long-term, least recently active first, ties by id.
  std::vector<MessageId> want = {{1, 2}, {1, 3}, {1, 4}};
  EXPECT_EQ(evicted, want);
  EXPECT_TRUE(s->has(MessageId{1, 1}));
  EXPECT_TRUE(s->has(MessageId{1, 5}));
  EXPECT_TRUE(s->has(MessageId{1, 6}));
}

TEST(BufferBudgetTest, MultiVictimEvictionTakesRedundantCopiesFirst) {
  // Coordinated, with no shed handler, so every victim is evicted. A
  // neighbour advertises (1,5) and wins its keeper election: the freshest
  // short-term entry is now the most expendable, ahead of older sole copies.
  FakePolicyEnv env(/*region_size=*/64);
  CoordinationParams coord;
  coord.enabled = true;
  auto s = std::make_unique<BufferStore>(
      std::make_unique<BufferEverythingPolicy>(), frame_budget(5, 64), coord);
  s->bind(&env);
  const MessageId shared{1, 5};
  MemberId keeper = 1;
  while (keeper < 64 && hash_score(shared, keeper) >= hash_score(shared, 0)) {
    ++keeper;
  }
  ASSERT_LT(keeper, MemberId{64});
  s->digests().update(keeper, 0, {{1, 5, 1}});
  ASSERT_FALSE(s->digests().keeper_is(shared, env.self()));
  std::vector<MessageId> evicted = evictions_of_three_frame_admission(env, *s);
  std::vector<MessageId> want = {{1, 5}, {1, 2}, {1, 3}};
  EXPECT_EQ(evicted, want);
  EXPECT_TRUE(s->has(MessageId{1, 1}));
  EXPECT_TRUE(s->has(MessageId{1, 4}));
  EXPECT_EQ(s->stats().shed, 0u);
}

TEST(BufferBudgetTest, EvictionCancelsPendingEntryTimer) {
  FakePolicyEnv env;
  // Fixed-time arms one discard timer per entry; eviction must cancel it so
  // no stale slab handle fires later.
  auto s = make_store_of<FixedTimePolicy>(env, frame_budget(1),
                                          Duration::millis(100));
  s->store(make_data(1, 1));
  EXPECT_EQ(env.sim().pending_count(), 1u);
  s->store(make_data(1, 2));  // evicts {1,1}; its TTL timer must die with it
  EXPECT_EQ(s->stats().evicted, 1u);
  EXPECT_EQ(env.sim().pending_count(), 1u);  // only {1,2}'s timer remains
  env.advance(Duration::millis(200));
  EXPECT_FALSE(s->has(MessageId{1, 2}));
  // Exactly one policy discard fired ({1,2}'s TTL); the evicted entry's
  // cancelled timer did not double-count.
  EXPECT_EQ(s->stats().discarded, 1u);
  EXPECT_EQ(s->stats().evicted, 1u);
  EXPECT_EQ(s->stats().stored,
            s->stats().discarded + s->stats().evicted + s->count());
}

TEST(BufferBudgetTest, EvictionRacesIdleCheckSafely) {
  FakePolicyEnv env;
  // Two-phase arms an idle check per entry. Evict an entry while its check
  // is pending, let the wheel advance: the cancelled check must not fire,
  // and a re-stored id gets a fresh lifecycle.
  auto s = make_store_of<TwoPhasePolicy>(
      env, frame_budget(1),
      TwoPhaseParams{Duration::millis(40), 0.0, Duration::infinite()});
  s->store(make_data(1, 1));
  env.advance(Duration::millis(10));
  s->store(make_data(1, 2));  // evicts {1,1} mid idle-countdown
  EXPECT_EQ(s->stats().evicted, 1u);
  s->store(make_data(1, 1));  // re-admitted: evicts {1,2}, fresh timer
  EXPECT_EQ(s->stats().evicted, 2u);
  env.advance(Duration::millis(60));  // C=0: idle check discards {1,1}
  EXPECT_FALSE(s->has(MessageId{1, 1}));
  EXPECT_EQ(s->stats().discarded, 1u);
  EXPECT_EQ(env.sim().pending_count(), 0u);  // nothing dangling
}

TEST(BufferBudgetTest, DrainForHandoffInteractsWithFullStore) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(
      env, frame_budget(3),
      TwoPhaseParams{Duration::millis(40), 0.0, Duration::infinite()});
  s->accept_handoff(make_data(1, 1));  // long-term
  s->store(make_data(1, 2));           // short-term
  s->accept_handoff(make_data(1, 3));  // long-term; store now at budget
  auto drained = s->drain_for_handoff();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(s->count(), 1u);
  EXPECT_EQ(s->stats().handed_off, 2u);
  // The drain freed budget: new admissions (and handoffs) fit again without
  // evicting the remaining short-term entry.
  EXPECT_EQ(s->accept_handoff(make_data(1, 4)), Admission::kStored);
  EXPECT_EQ(s->store(make_data(1, 5)), Admission::kStored);
  EXPECT_EQ(s->stats().evicted, 0u);
  // One more admission at budget evicts the short-term entry, never the
  // handed-off long-term copy.
  EXPECT_EQ(s->store(make_data(1, 6)), Admission::kStored);
  EXPECT_FALSE(s->has(MessageId{1, 2}));
  EXPECT_TRUE(s->has(MessageId{1, 4}));
}

TEST(BufferBudgetTest, ShedHandoffsCountedSeparatelyFromEvictions) {
  // Capacity reports must distinguish recoverable departures (the copy
  // moved to a neighbor) from lost ones (the copy died). One run forces
  // both: a sole-copy victim is shed, a digest-advertised victim is
  // evicted, and the two stats never bleed into each other — nor into the
  // policy-discard or leave-handoff counters.
  FakePolicyEnv env(/*region_size=*/4, /*self=*/0, /*seed=*/3);
  CoordinationParams coord;
  coord.enabled = true;
  // Entries younger than one digest period are evicted, never shed (the
  // anti-ping-pong age gate); keep the period below the test's advances.
  coord.digest_interval = Duration::millis(1);
  auto store = std::make_unique<BufferStore>(
      std::make_unique<BufferEverythingPolicy>(), frame_budget(2), coord);
  store->bind(&env);
  std::size_t shed_sends = 0;
  store->set_shed_handler([&](const proto::Data&, MemberId) {
    ++shed_sends;
    return true;
  });
  std::vector<std::pair<MessageId, BufferEvent>> events;
  store->set_observer([&](const MessageId& id, BufferEvent ev, bool) {
    events.emplace_back(id, ev);
  });

  store->digests().update(2, 0, {});  // an empty neighbor: the shed target
  store->store(make_data(1, 1));      // sole copy
  env.advance(Duration::millis(1));
  store->store(make_data(1, 2));
  store->store(make_data(1, 3));  // pressure: sole-copy LRU {1,1} sheds
  EXPECT_EQ(store->stats().shed, 1u);
  EXPECT_EQ(store->stats().evicted, 0u);
  EXPECT_EQ(shed_sends, 1u);
  EXPECT_TRUE(std::count(events.begin(), events.end(),
                         std::pair<MessageId, BufferEvent>{
                             {1, 1}, BufferEvent::kShedHandoff}) == 1);

  store->digests().update(2, 0, {{1, 2, 1}});  // {1,2} now redundant
  store->store(make_data(1, 4));               // pressure: evicts {1,2}
  EXPECT_EQ(store->stats().shed, 1u);     // unchanged
  EXPECT_EQ(store->stats().evicted, 1u);  // the lost departure
  EXPECT_EQ(shed_sends, 1u);

  // The other departure kinds stay in their own columns.
  store->force_discard(MessageId{1, 3});
  EXPECT_EQ(store->stats().discarded, 1u);
  auto drained = store->drain_for_handoff();
  EXPECT_EQ(store->stats().handed_off, drained.size());
  EXPECT_EQ(store->stats().shed, 1u);
  EXPECT_EQ(store->stats().evicted, 1u);
  // Conservation across all five exits.
  EXPECT_EQ(store->stats().stored,
            store->count() + store->stats().discarded +
                store->stats().evicted + store->stats().shed +
                store->stats().handed_off);
}

TEST(BufferBudgetTest, ShedFallsBackToEvictionWithoutTargetOrHandler) {
  // No digest-advertised neighbor (or no transport): the sole copy is
  // evicted, never silently dropped on the floor mid-admission.
  FakePolicyEnv env(/*region_size=*/4, /*self=*/0, /*seed=*/3);
  CoordinationParams coord;
  coord.enabled = true;
  coord.digest_interval = Duration::millis(1);
  auto store = std::make_unique<BufferStore>(
      std::make_unique<BufferEverythingPolicy>(), frame_budget(1), coord);
  store->bind(&env);
  store->store(make_data(1, 1));
  env.advance(Duration::millis(2));
  store->store(make_data(1, 2));  // no handler, empty digest table
  EXPECT_EQ(store->stats().evicted, 1u);
  EXPECT_EQ(store->stats().shed, 0u);
  EXPECT_TRUE(store->has(MessageId{1, 2}));

  // A handler that declines (transport down) falls back the same way.
  store->set_shed_handler([](const proto::Data&, MemberId) { return false; });
  store->digests().update(2, 0, {});
  env.advance(Duration::millis(2));
  store->store(make_data(1, 3));
  EXPECT_EQ(store->stats().evicted, 2u);
  EXPECT_EQ(store->stats().shed, 0u);

  // And a handoff-received copy younger than one digest period is never
  // offered at all, even with a willing handler and target: the
  // anti-ping-pong gate stops a just-shed copy from bouncing onward.
  std::size_t offered = 0;
  store->set_shed_handler([&](const proto::Data&, MemberId) {
    ++offered;
    return true;
  });
  env.advance(Duration::millis(2));
  store->force_discard(MessageId{1, 3});
  store->accept_handoff(make_data(1, 4));  // a neighbor's shed just landed
  store->store(make_data(1, 5));           // pressure this same instant
  EXPECT_EQ(offered, 0u);
  EXPECT_EQ(store->stats().shed, 0u);
  EXPECT_FALSE(store->has(MessageId{1, 4}));  // evicted, not bounced

  // Aged past one digest period, the same provenance becomes sheddable.
  store->force_discard(MessageId{1, 5});
  store->accept_handoff(make_data(1, 6));
  env.advance(Duration::millis(2));
  store->store(make_data(1, 7));
  EXPECT_EQ(offered, 1u);
  EXPECT_EQ(store->stats().shed, 1u);
}

TEST(BufferBudgetTest, ShedTargetDepartedCountsEvictedNotShed) {
  // Digest advertisements lag the membership view by up to one period: a
  // neighbor that advertised plenty of free space can depart and still sit
  // in the digest table looking like the best shed target. An eviction in
  // that window must count the copy as *evicted* — there is nobody to
  // receive it, and "shed" promises the copy survived. Target selection
  // filters candidates by the live member list, so the stale advertisement
  // is never offered to the handler at all.
  FakePolicyEnv env(/*region_size=*/4, /*self=*/0, /*seed=*/3);
  CoordinationParams coord;
  coord.enabled = true;
  coord.digest_interval = Duration::millis(1);
  auto store = std::make_unique<BufferStore>(
      std::make_unique<BufferEverythingPolicy>(), frame_budget(1), coord);
  store->bind(&env);
  std::size_t offered = 0;
  store->set_shed_handler([&](const proto::Data&, MemberId) {
    ++offered;
    return true;
  });

  store->digests().update(2, 0, {});  // peer 2: the obvious shed target...
  env.set_members({0, 1, 3});         // ...which has already departed
  store->store(make_data(1, 1));      // sole copy
  env.advance(Duration::millis(2));   // past the anti-ping-pong age gate
  store->store(make_data(1, 2));      // pressure: {1,1} must go
  EXPECT_EQ(offered, 0u);
  EXPECT_EQ(store->stats().evicted, 1u);
  EXPECT_EQ(store->stats().shed, 0u);

  // Once a *live* alternative advertises space, shedding resumes.
  store->digests().update(3, 0, {});
  env.advance(Duration::millis(2));
  store->store(make_data(1, 3));
  EXPECT_EQ(offered, 1u);
  EXPECT_EQ(store->stats().shed, 1u);
  EXPECT_EQ(store->stats().evicted, 1u);
}

TEST(BufferBudgetTest, UnlimitedByDefault) {
  EXPECT_TRUE(BufferBudget{}.unlimited());
  EXPECT_FALSE(BufferBudget{1}.unlimited());
}

// -------------------------------------------------------------- two-phase ----

TwoPhaseParams tp(Duration idle, double c,
                  Duration ttl = Duration::infinite()) {
  return TwoPhaseParams{idle, c, ttl};
}

TEST(TwoPhaseTest, IdleMessageDiscardedAfterThresholdWhenCZero) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(env, {}, tp(Duration::millis(40), 0.0));
  s->store(make_data(1, 1));
  env.advance(Duration::millis(39));
  EXPECT_TRUE(s->has(MessageId{1, 1}));
  env.advance(Duration::millis(2));
  EXPECT_FALSE(s->has(MessageId{1, 1}));
}

TEST(TwoPhaseTest, RequestFeedbackExtendsShortTermBuffering) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(env, {}, tp(Duration::millis(40), 0.0));
  MessageId id{1, 1};
  s->store(make_data(1, 1));
  // Keep poking every 30 ms: the idle threshold never elapses.
  for (int i = 0; i < 5; ++i) {
    env.advance(Duration::millis(30));
    s->on_request_seen(id);
    EXPECT_TRUE(s->has(id));
  }
  // Silence for T: now it goes.
  env.advance(Duration::millis(41));
  EXPECT_FALSE(s->has(id));
}

TEST(TwoPhaseTest, AlwaysPromotedWhenCEqualsRegionSize) {
  FakePolicyEnv env(/*region_size=*/10);
  auto s = make_store_of<TwoPhasePolicy>(env, {}, tp(Duration::millis(10), 10.0));
  s->store(make_data(1, 1));
  env.advance(Duration::millis(20));
  EXPECT_TRUE(s->has(MessageId{1, 1}));
  EXPECT_TRUE(s->is_long_term(MessageId{1, 1}));
}

TEST(TwoPhaseTest, PromotionProbabilityIsCOverN) {
  FakePolicyEnv env(/*region_size=*/10, /*self=*/0, /*seed=*/99);
  auto s = make_store_of<TwoPhasePolicy>(env, {}, tp(Duration::millis(5), 3.0));
  const int n = 4000;
  for (std::uint64_t q = 1; q <= n; ++q) s->store(make_data(1, q));
  env.advance(Duration::millis(10));
  double kept = static_cast<double>(s->count()) / n;
  EXPECT_NEAR(kept, 0.3, 0.03);
  EXPECT_EQ(s->stats().promoted_long_term, s->count());
}

TEST(TwoPhaseTest, LongTermTtlEventuallyDiscards) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(
      env, {}, tp(Duration::millis(10), 10.0, Duration::millis(100)));
  s->store(make_data(1, 1));
  env.advance(Duration::millis(20));  // promoted at ~10ms
  EXPECT_TRUE(s->is_long_term(MessageId{1, 1}));
  env.advance(Duration::millis(200));
  EXPECT_FALSE(s->has(MessageId{1, 1}));
}

TEST(TwoPhaseTest, LongTermTtlRefreshedByRequests) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(
      env, {}, tp(Duration::millis(10), 10.0, Duration::millis(100)));
  MessageId id{1, 1};
  s->store(make_data(1, 1));
  env.advance(Duration::millis(20));
  ASSERT_TRUE(s->is_long_term(id));
  // Requests every 80 ms keep it alive past several TTLs.
  for (int i = 0; i < 4; ++i) {
    env.advance(Duration::millis(80));
    s->on_request_seen(id);
  }
  EXPECT_TRUE(s->has(id));
  env.advance(Duration::millis(150));
  EXPECT_FALSE(s->has(id));
}

TEST(TwoPhaseTest, HandoffAcceptedAsLongTermImmediately) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(env, {},
                                         tp(Duration::millis(10), 0.0));
  s->accept_handoff(make_data(1, 1));
  EXPECT_TRUE(s->is_long_term(MessageId{1, 1}));
  env.advance(Duration::millis(100));
  EXPECT_TRUE(s->has(MessageId{1, 1}));  // no idle discard for long-term
}

TEST(TwoPhaseTest, HandoffUpgradesExistingShortTermEntry) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(env, {},
                                         tp(Duration::millis(40), 0.0));
  s->store(make_data(1, 1));
  EXPECT_FALSE(s->is_long_term(MessageId{1, 1}));
  EXPECT_EQ(s->accept_handoff(make_data(1, 1)), Admission::kDuplicate);
  EXPECT_TRUE(s->is_long_term(MessageId{1, 1}));
  env.advance(Duration::millis(100));
  EXPECT_TRUE(s->has(MessageId{1, 1}));  // upgraded entries survive idling
}

TEST(TwoPhaseTest, DrainForHandoffReturnsOnlyLongTerm) {
  FakePolicyEnv env;
  auto s = make_store_of<TwoPhasePolicy>(env, {},
                                         tp(Duration::millis(40), 0.0));
  s->store(make_data(1, 1));             // short-term
  s->accept_handoff(make_data(1, 2));    // long-term
  s->accept_handoff(make_data(1, 3));    // long-term
  auto drained = s->drain_for_handoff();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_FALSE(s->has(MessageId{1, 2}));
  EXPECT_FALSE(s->has(MessageId{1, 3}));
  EXPECT_TRUE(s->has(MessageId{1, 1}));  // short-term entry not transferred
  EXPECT_EQ(s->stats().handed_off, 2u);
}

// -------------------------------------------------------------- fixed-time ----

TEST(FixedTimeTest, DiscardsExactlyAfterTtl) {
  FakePolicyEnv env;
  auto s = make_store_of<FixedTimePolicy>(env, {}, Duration::millis(100));
  s->store(make_data(1, 1));
  env.advance(Duration::millis(99));
  EXPECT_TRUE(s->has(MessageId{1, 1}));
  env.advance(Duration::millis(2));
  EXPECT_FALSE(s->has(MessageId{1, 1}));
}

TEST(FixedTimeTest, RequestsDoNotExtendLifetime) {
  FakePolicyEnv env;
  auto s = make_store_of<FixedTimePolicy>(env, {}, Duration::millis(100));
  MessageId id{1, 1};
  s->store(make_data(1, 1));
  for (int i = 0; i < 9; ++i) {
    env.advance(Duration::millis(10));
    s->on_request_seen(id);
  }
  env.advance(Duration::millis(15));
  EXPECT_FALSE(s->has(id));  // Bimodal's policy ignores demand
}

TEST(FixedTimeTest, StaggeredStoresExpireIndependently) {
  FakePolicyEnv env;
  auto s = make_store_of<FixedTimePolicy>(env, {}, Duration::millis(50));
  s->store(make_data(1, 1));
  env.advance(Duration::millis(30));
  s->store(make_data(1, 2));
  env.advance(Duration::millis(25));  // t=55: first gone, second alive
  EXPECT_FALSE(s->has(MessageId{1, 1}));
  EXPECT_TRUE(s->has(MessageId{1, 2}));
}

// ------------------------------------------------------- buffer-everything ----

TEST(BufferEverythingTest, NeverDiscards) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  for (std::uint64_t q = 1; q <= 100; ++q) s->store(make_data(1, q));
  env.advance(Duration::seconds(100));
  EXPECT_EQ(s->count(), 100u);
  EXPECT_EQ(s->stats().discarded, 0u);
}

TEST(BufferEverythingTest, DrainsEverythingOnHandoff) {
  FakePolicyEnv env;
  auto s = make_store_of<BufferEverythingPolicy>(env, {});
  for (std::uint64_t q = 1; q <= 10; ++q) s->store(make_data(1, q));
  auto drained = s->drain_for_handoff();
  EXPECT_EQ(drained.size(), 10u);
  EXPECT_EQ(s->count(), 0u);
}

// ------------------------------------------------------------- hash-based ----

TEST(HashBasedTest, ScoreIsDeterministic) {
  MessageId id{1, 7};
  EXPECT_EQ(hash_score(id, 3), hash_score(id, 3));
  EXPECT_NE(hash_score(id, 3), hash_score(id, 4));
  EXPECT_NE(hash_score(id, 3), hash_score(MessageId{1, 8}, 3));
}

TEST(HashBasedTest, BuffererSetDeterministicAndOrderIndependent) {
  std::vector<MemberId> a = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<MemberId> b = {7, 3, 5, 1, 6, 0, 2, 4};
  MessageId id{2, 42};
  auto sa = hash_bufferers(id, a, 3);
  auto sb = hash_bufferers(id, b, 3);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa.size(), 3u);
}

TEST(HashBasedTest, BuffererSetVariesByMessage) {
  std::vector<MemberId> members(50);
  for (std::size_t i = 0; i < 50; ++i) members[i] = static_cast<MemberId>(i);
  std::set<std::vector<MemberId>> sets;
  for (std::uint64_t q = 1; q <= 30; ++q) {
    sets.insert(hash_bufferers(MessageId{1, q}, members, 5));
  }
  EXPECT_GT(sets.size(), 25u);  // essentially always different
}

TEST(HashBasedTest, SelectionIsBalancedAcrossMembers) {
  std::vector<MemberId> members(20);
  for (std::size_t i = 0; i < 20; ++i) members[i] = static_cast<MemberId>(i);
  std::map<MemberId, int> load;
  const int msgs = 5000;
  for (std::uint64_t q = 1; q <= msgs; ++q) {
    for (MemberId m : hash_bufferers(MessageId{1, q}, members, 4)) ++load[m];
  }
  // Expected load per member: msgs * 4 / 20 = 1000.
  for (const auto& [m, c] : load) {
    EXPECT_NEAR(static_cast<double>(c), 1000.0, 120.0);
  }
}

TEST(HashBasedTest, KLargerThanMembershipReturnsAll) {
  std::vector<MemberId> members = {1, 2, 3};
  EXPECT_EQ(hash_bufferers(MessageId{1, 1}, members, 10).size(), 3u);
  EXPECT_TRUE(hash_bufferers(MessageId{1, 1}, {}, 3).empty());
  EXPECT_TRUE(hash_bufferers(MessageId{1, 1}, members, 0).empty());
}

TEST(HashBasedTest, SelectedMemberKeepsOthersDropAfterGrace) {
  // Find a message where member 0 is (and one where it is not) selected.
  std::vector<MemberId> members(10);
  for (std::size_t i = 0; i < 10; ++i) members[i] = static_cast<MemberId>(i);
  std::uint64_t selected_seq = 0, unselected_seq = 0;
  for (std::uint64_t q = 1; q < 100 && (!selected_seq || !unselected_seq); ++q) {
    auto set = hash_bufferers(MessageId{1, q}, members, 3);
    bool mine = std::find(set.begin(), set.end(), MemberId{0}) != set.end();
    if (mine && !selected_seq) selected_seq = q;
    if (!mine && !unselected_seq) unselected_seq = q;
  }
  ASSERT_NE(selected_seq, 0u);
  ASSERT_NE(unselected_seq, 0u);

  FakePolicyEnv env(/*region_size=*/10, /*self=*/0);
  BufferStore s(std::make_unique<HashBasedPolicy>(
      HashBasedParams{3, Duration::millis(40)}));
  s.bind(&env);
  s.store(make_data(1, selected_seq));
  s.store(make_data(1, unselected_seq));
  EXPECT_TRUE(s.is_long_term(MessageId{1, selected_seq}));
  EXPECT_FALSE(s.is_long_term(MessageId{1, unselected_seq}));
  env.advance(Duration::millis(50));
  EXPECT_TRUE(s.has(MessageId{1, selected_seq}));
  EXPECT_FALSE(s.has(MessageId{1, unselected_seq}));  // grace expired
}

TEST(HashBasedTest, HandoffSurvivesDespiteNotBeingHashSelected) {
  // A transferred copy (leave handoff or coordination shed) lands on a
  // member chosen by load, not by hash. The policy must accept the
  // responsibility: neither the fresh-insert path nor a grace timer
  // already pending on a short-term duplicate may destroy the copy the
  // transfer was meant to preserve.
  std::vector<MemberId> members(10);
  for (std::size_t i = 0; i < 10; ++i) members[i] = static_cast<MemberId>(i);
  std::uint64_t unselected_seq = 0;
  for (std::uint64_t q = 1; q < 100 && !unselected_seq; ++q) {
    auto set = hash_bufferers(MessageId{1, q}, members, 3);
    if (std::find(set.begin(), set.end(), MemberId{0}) == set.end()) {
      unselected_seq = q;
    }
  }
  ASSERT_NE(unselected_seq, 0u);

  // Fresh insert via handoff: long-term immediately, no grace discard.
  FakePolicyEnv env(/*region_size=*/10, /*self=*/0);
  auto s = make_store_of<HashBasedPolicy>(
      env, {}, HashBasedParams{3, Duration::millis(40)});
  s->accept_handoff(make_data(1, unselected_seq));
  EXPECT_TRUE(s->is_long_term(MessageId{1, unselected_seq}));
  env.advance(Duration::millis(100));
  EXPECT_TRUE(s->has(MessageId{1, unselected_seq}));

  // Grace pending, then upgraded by a handoff: the grace expiry must spare
  // the now-long-term entry.
  FakePolicyEnv env2(/*region_size=*/10, /*self=*/0);
  auto s2 = make_store_of<HashBasedPolicy>(
      env2, {}, HashBasedParams{3, Duration::millis(40)});
  s2->store(make_data(1, unselected_seq));  // non-bufferer: grace armed
  env2.advance(Duration::millis(10));
  EXPECT_EQ(s2->accept_handoff(make_data(1, unselected_seq)),
            Admission::kDuplicate);
  EXPECT_TRUE(s2->is_long_term(MessageId{1, unselected_seq}));
  env2.advance(Duration::millis(100));  // grace fires mid-way; must spare it
  EXPECT_TRUE(s2->has(MessageId{1, unselected_seq}));
  EXPECT_EQ(env2.sim().pending_count(), 0u);  // spent handle was cleared
}

// --------------------------------------------------------------- stability ----

TEST(StabilityPolicyTest, DiscardsOnlyBelowStableFrontier) {
  FakePolicyEnv env;
  auto policy = std::make_unique<StabilityPolicy>();
  StabilityPolicy* sp = policy.get();
  BufferStore s(std::move(policy));
  s.bind(&env);
  for (std::uint64_t q = 1; q <= 10; ++q) s.store(make_data(1, q));
  s.store(make_data(2, 1));  // different source unaffected
  sp->mark_stable_below(1, 6);
  for (std::uint64_t q = 1; q <= 5; ++q) EXPECT_FALSE(s.has(MessageId{1, q}));
  for (std::uint64_t q = 6; q <= 10; ++q) EXPECT_TRUE(s.has(MessageId{1, q}));
  EXPECT_TRUE(s.has(MessageId{2, 1}));
}

TEST(StabilityTrackerTest, FrontierIsMinimumOverMembers) {
  StabilityTracker t;
  t.update(0, proto::SourceHistory{1, 10, {}});
  t.update(1, proto::SourceHistory{1, 7, {}});
  t.update(2, proto::SourceHistory{1, 12, {}});
  std::vector<MemberId> expected = {0, 1, 2};
  EXPECT_EQ(t.stable_below(1, expected), 7u);
}

TEST(StabilityTrackerTest, UnreportedMemberGatesStability) {
  StabilityTracker t;
  t.update(0, proto::SourceHistory{1, 10, {}});
  std::vector<MemberId> expected = {0, 1};
  EXPECT_EQ(t.stable_below(1, expected), 0u);  // member 1 never reported
}

TEST(StabilityTrackerTest, ForgettingAMemberUnblocksFrontier) {
  StabilityTracker t;
  t.update(0, proto::SourceHistory{1, 10, {}});
  t.update(1, proto::SourceHistory{1, 2, {}});
  std::vector<MemberId> both = {0, 1};
  EXPECT_EQ(t.stable_below(1, both), 2u);
  t.forget_member(1);
  std::vector<MemberId> only0 = {0};
  EXPECT_EQ(t.stable_below(1, only0), 10u);
}

TEST(StabilityTrackerTest, ReportsOnlyAdvanceForward) {
  StabilityTracker t;
  t.update(0, proto::SourceHistory{1, 10, {}});
  t.update(0, proto::SourceHistory{1, 4, {}});  // stale report ignored
  std::vector<MemberId> expected = {0};
  EXPECT_EQ(t.stable_below(1, expected), 10u);
}

TEST(StabilityTrackerTest, ContiguousBitmapPrefixExtendsFrontier) {
  StabilityTracker t;
  // next_expected 5, bitmap covers 5,6,7 (bits 0..2 set) then a hole.
  t.update(0, proto::SourceHistory{1, 5, {0b0111}});
  std::vector<MemberId> expected = {0};
  EXPECT_EQ(t.stable_below(1, expected), 8u);
}

TEST(StabilityTrackerTest, UnknownSourceIsUnstable) {
  StabilityTracker t;
  std::vector<MemberId> expected = {0};
  EXPECT_EQ(t.stable_below(42, expected), 0u);
}

// ----------------------------------------------------------------- factory ----

TEST(FactoryTest, MakesEveryKind) {
  for (PolicyKind kind :
       {PolicyKind::kTwoPhase, PolicyKind::kFixedTime,
        PolicyKind::kBufferEverything, PolicyKind::kHashBased,
        PolicyKind::kStability}) {
    PolicySpec spec = default_spec(kind);
    EXPECT_EQ(kind_of(spec), kind);
    ASSERT_NE(make_policy(spec), nullptr);
    auto s = make_store(spec, BufferBudget{1024});
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->budget().max_bytes, 1024u);
  }
}

TEST(FactoryTest, KindFromNameRoundTrips) {
  for (PolicyKind kind :
       {PolicyKind::kTwoPhase, PolicyKind::kFixedTime,
        PolicyKind::kBufferEverything, PolicyKind::kHashBased,
        PolicyKind::kStability}) {
    PolicyKind parsed;
    ASSERT_TRUE(kind_from_name(to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind parsed;
  EXPECT_FALSE(kind_from_name("bogus", parsed));
}

TEST(FactoryTest, SpecsAreSelfDescribing) {
  EXPECT_EQ(describe(TwoPhaseParams{Duration::millis(40), 6.0,
                                    Duration::infinite()}),
            "two-phase(T=40ms, C=6, ttl=inf)");
  EXPECT_EQ(describe(FixedTimeParams{Duration::millis(120)}),
            "fixed-time(ttl=120ms)");
  EXPECT_EQ(describe(BufferEverythingParams{}), "buffer-everything()");
  EXPECT_EQ(describe(HashBasedParams{4, Duration::millis(20)}),
            "hash-based(k=4, grace=20ms)");
  EXPECT_EQ(describe(StabilityParams{}), "stability()");
}

}  // namespace
}  // namespace rrmp::buffer

// Property/fuzz layer for the budgeted, coordinated BufferStore (ISSUE 5).
//
// Every (policy, budget, coordination, seed) combination drives a store
// through a long randomized sequence of admissions, handoffs, request
// feedback, time advances, forced discards, handoff drains, neighbor digest
// updates, prunes and aging, and stability-frontier advances, and checks
// the store's structural invariants after every operation:
//
//   - the budget is never exceeded once an admission returns;
//   - accounting is exact (bytes == sum of entry sizes, stats conservation:
//     everything stored is still present or departed exactly once);
//   - flat storage stays strictly id-sorted;
//   - timer bookkeeping is exact: the simulator's pending count equals the
//     number of live entries whose timer handle is still pending, so no
//     timer can ever fire for a departed entry and no handle leaks;
//   - digest-derived replica counts never go negative (they are counts, not
//     deltas) and never exceed the advertising peer set;
//   - the flat DigestTable answers peer_count, has_peer, holders_of and
//     least_loaded exactly as a std::map shadow fed the same digest ops, and
//     its one-pass holder_infos equals per-id holder_info, overlapping and
//     unsorted wire ranges included;
//   - shed handoffs happen only under coordination, only for sole copies,
//     and only toward digest-advertised peers, and are counted apart from
//     evictions.
//
// Determinism is a property too: replaying the same seed must produce a
// byte-identical event log and final store state, and the store's
// pick_victims must return identical victims for identical state.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "buffer/factory.h"
#include "proto/codec.h"
#include "rrmp/flow_control.h"
#include "test_env.h"

namespace rrmp::buffer {
namespace {

using rrmp::testing::FakePolicyEnv;
using rrmp::testing::frame_budget;
using rrmp::testing::make_data;

struct FuzzConfig {
  PolicyKind kind = PolicyKind::kTwoPhase;
  BufferBudget budget;
  CoordinationParams coordination;
  std::uint64_t seed = 1;
  std::size_t ops = 300;
};

/// One recorded store event; the whole log is the determinism witness.
struct LoggedEvent {
  MessageId id;
  BufferEvent ev;
  bool long_term;

  friend bool operator==(const LoggedEvent&, const LoggedEvent&) = default;
};

struct ShedRecord {
  MessageId id;
  MemberId target;
};

/// The DigestTable's specification as an ordered map: one advertisement
/// per peer, visited in ascending member id.
struct ShadowDigest {
  std::uint64_t bytes_in_use = 0;
  std::size_t missed = 0;
  std::vector<proto::DigestRange> ranges;
};
using DigestShadow = std::map<MemberId, ShadowDigest>;

bool shadow_holds(const ShadowDigest& d, const MessageId& id) {
  for (const proto::DigestRange& r : d.ranges) {
    if (r.source == id.source && id.seq >= r.first_seq &&
        id.seq - r.first_seq < r.count) {
      return true;
    }
  }
  return false;
}

MemberId shadow_least_loaded(const DigestShadow& shadow,
                             const std::vector<MemberId>& alive,
                             MemberId exclude) {
  MemberId best = kInvalidMember;
  std::uint64_t best_bytes = 0;
  for (const auto& [peer, d] : shadow) {
    if (peer == exclude) continue;
    if (std::find(alive.begin(), alive.end(), peer) == alive.end()) continue;
    if (best == kInvalidMember || d.bytes_in_use < best_bytes) {
      best = peer;
      best_bytes = d.bytes_in_use;
    }
  }
  return best;
}

/// Drives one randomized run and checks invariants after every op.
class StoreFuzzer {
 public:
  explicit StoreFuzzer(const FuzzConfig& cfg)
      : cfg_(cfg),
        env_(/*region_size=*/8, /*self=*/0, /*seed=*/cfg.seed),
        op_rng_(cfg.seed ^ 0xF022ED5ULL) {
    store_ = make_store(spec_for(cfg.kind), cfg.budget, cfg.coordination);
    store_->bind(&env_);
    store_->set_observer([this](const MessageId& id, BufferEvent ev, bool lt) {
      log_.push_back({id, ev, lt});
    });
    store_->set_shed_handler([this](const proto::Data& d, MemberId target) {
      sheds_.push_back({d.id, target});
      return true;
    });
  }

  void run() {
    for (std::size_t op = 0; op < cfg_.ops; ++op) {
      step();
      check_invariants(op);
    }
    // Drain the tail: every armed timer fires against a live entry or was
    // cancelled with it; the final advance must leave the accounting exact.
    env_.advance(Duration::seconds(10));
    check_invariants(cfg_.ops);
  }

  const std::vector<LoggedEvent>& log() const { return log_; }
  const std::vector<ShedRecord>& sheds() const { return sheds_; }
  const BufferStore& store() const { return *store_; }

  /// Canonical digest of the final store state (determinism witness).
  std::string state_digest() const {
    std::ostringstream os;
    store_->for_each_entry([&](const BufferStore::EntryView& e) {
      os << e.id << "/" << e.bytes << "/" << (e.long_term ? "L" : "S") << "/"
         << e.last_activity.us() << ";";
    });
    const BufferStats& st = store_->stats();
    os << "|" << st.stored << "," << st.discarded << "," << st.evicted << ","
       << st.shed << "," << st.handed_off << "," << st.rejected << ","
       << st.promoted_long_term;
    return os.str();
  }

 private:
  static PolicySpec spec_for(PolicyKind kind) {
    switch (kind) {
      case PolicyKind::kTwoPhase:
        // Finite TTL so the long-term re-arm path is fuzzed too.
        return TwoPhaseParams{Duration::millis(40), 3.0,
                              Duration::millis(200)};
      case PolicyKind::kFixedTime:
        return FixedTimeParams{Duration::millis(60)};
      case PolicyKind::kBufferEverything: return BufferEverythingParams{};
      case PolicyKind::kHashBased:
        return HashBasedParams{3, Duration::millis(40)};
      case PolicyKind::kStability: return StabilityParams{};
    }
    return TwoPhaseParams{};
  }

  MessageId random_id() {
    // A small id space makes duplicates, re-admissions of departed ids, and
    // digest-range hits all common.
    return MessageId{static_cast<MemberId>(op_rng_.uniform_int(1, 2)),
                     static_cast<std::uint64_t>(op_rng_.uniform_int(1, 40))};
  }

  void step() {
    std::int64_t dice = op_rng_.uniform_int(0, 99);
    MessageId id = random_id();
    if (dice < 35) {
      std::size_t bytes = static_cast<std::size_t>(op_rng_.uniform_int(8, 96));
      store_->store(proto::Data{
          id, std::vector<std::uint8_t>(bytes, 0x5C)});
    } else if (dice < 45) {
      store_->accept_handoff(proto::Data{
          id, std::vector<std::uint8_t>(
                  static_cast<std::size_t>(op_rng_.uniform_int(8, 96)), 0x5D)});
    } else if (dice < 62) {
      store_->on_request_seen(id);
    } else if (dice < 78) {
      env_.advance(Duration::millis(op_rng_.uniform_int(1, 30)));
    } else if (dice < 84) {
      store_->force_discard(id);
    } else if (dice < 92) {
      // Neighbor digest churn: a random peer advertises a random range set.
      MemberId peer = static_cast<MemberId>(op_rng_.uniform_int(1, 7));
      std::vector<proto::DigestRange> ranges;
      for (std::int64_t i = op_rng_.uniform_int(0, 2); i > 0; --i) {
        ranges.push_back(
            {static_cast<MemberId>(op_rng_.uniform_int(1, 2)),
             static_cast<std::uint64_t>(op_rng_.uniform_int(1, 40)),
             static_cast<std::uint64_t>(op_rng_.uniform_int(1, 8))});
      }
      // Coarse sizes make least_loaded's tie-break on member id common.
      auto bytes =
          static_cast<std::uint64_t>(op_rng_.uniform_int(0, 8)) * 512;
      store_->digests().update(peer, bytes, ranges);
      shadow_[peer] = ShadowDigest{bytes, 0, ranges};
    } else if (dice < 94) {
      std::int64_t kind = op_rng_.uniform_int(0, 2);
      if (kind == 0) {
        auto peer = static_cast<MemberId>(op_rng_.uniform_int(1, 7));
        store_->digests().forget(peer);
        shadow_.erase(peer);
      } else if (kind == 1) {
        // View shrink: prune advertisers against a random alive subset, as
        // the endpoint does each digest period.
        std::vector<MemberId> alive;
        for (MemberId m = 0; m < 8; ++m) {
          if (op_rng_.uniform_int(0, 3) != 0) alive.push_back(m);
        }
        store_->digests().retain(alive);
        std::erase_if(shadow_, [&alive](const auto& row) {
          return std::find(alive.begin(), alive.end(), row.first) ==
                 alive.end();
        });
      } else {
        // A digest period passes with no refresh.
        std::size_t dropped = store_->digests().age();
        for (auto& [peer, d] : shadow_) ++d.missed;
        std::size_t expected = std::erase_if(shadow_, [](const auto& row) {
          return row.second.missed > kMaxMissedDigests;
        });
        ASSERT_EQ(dropped, expected);
      }
    } else if (dice < 96) {
      (void)store_->drain_for_handoff();
    } else if (dice < 98 && cfg_.kind == PolicyKind::kStability) {
      auto* sp = dynamic_cast<StabilityPolicy*>(&store_->policy());
      ASSERT_NE(sp, nullptr);
      sp->mark_stable_below(static_cast<MemberId>(op_rng_.uniform_int(1, 2)),
                            static_cast<std::uint64_t>(op_rng_.uniform_int(1, 40)));
    } else {
      // Victim determinism for the current state: identical demands must
      // produce identical victims (pick_victims is a pure function of
      // store + digest state).
      auto need = static_cast<std::size_t>(op_rng_.uniform_int(0, 256));
      ASSERT_EQ(store_->pick_victims(need), store_->pick_victims(need));
    }
  }

  void check_invariants(std::size_t op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const BufferStats& st = store_->stats();

    // Budget never exceeded after an admission returned.
    if (!cfg_.budget.unlimited()) {
      ASSERT_LE(store_->bytes(), cfg_.budget.max_bytes);
    }

    // Exact accounting: bytes tracks the entries, storage stays sorted, and
    // every stored message is either still present or departed exactly once.
    std::size_t sum_bytes = 0, timers = 0, entries = 0;
    MessageId prev{0, 0};
    bool first = true;
    store_->for_each_entry([&](const BufferStore::EntryView& e) {
      sum_bytes += e.bytes;
      if (env_.sim().pending(sim::TimerId{e.timer})) ++timers;
      ++entries;
      if (!first) {
        ASSERT_LT(prev, e.id);
      }
      prev = e.id;
      first = false;
      ASSERT_EQ(e.bytes,
                proto::encoded_size(*store_->get(e.id)));
    });
    ASSERT_EQ(sum_bytes, store_->bytes());
    ASSERT_EQ(entries, store_->count());
    ASSERT_EQ(st.stored,
              store_->count() + st.discarded + st.evicted + st.shed +
                  st.handed_off);

    // Timer bookkeeping is exact: every pending simulator event belongs to
    // a live entry, one per entry, so no timer can fire for a departed one.
    // A fired handle stays on its entry until re-armed, so count the
    // handles the simulator still holds rather than the nonzero ones.
    ASSERT_EQ(env_.sim().pending_count(), timers);

    // Digest-derived counts are counts, not deltas: bounded and never
    // "negative" (a held entry always counts itself).
    store_->for_each_entry([&](const BufferStore::EntryView& e) {
      std::size_t replicas = store_->known_replicas(e.id);
      ASSERT_GE(replicas, 1u);
      ASSERT_LE(replicas, 1 + store_->digests().peer_count());
    });
    ASSERT_EQ(store_->known_replicas(MessageId{99, 99}), 0u);
    check_digest_table();

    // Sheds: coordination-gated, sole-copy-only, digest-advertised targets,
    // counted apart from evictions.
    ASSERT_EQ(st.shed, sheds_.size());
    if (!cfg_.coordination.enabled) {
      ASSERT_EQ(st.shed, 0u);
    }
    for (const ShedRecord& s : sheds_) {
      ASSERT_NE(s.target, MemberId{0});  // never to self
      ASSERT_TRUE(s.target != kInvalidMember);
    }
  }

  /// The flat table against its map shadow, and the one-pass ranking
  /// against the per-id one, over the stored ids (pick_victims' input) and
  /// every id the fuzz's ranges can reach.
  void check_digest_table() {
    const DigestTable& table = store_->digests();
    ASSERT_EQ(table.peer_count(), shadow_.size());
    for (MemberId m = 0; m < 9; ++m) {
      ASSERT_EQ(table.has_peer(m), shadow_.count(m) != 0) << "peer " << m;
    }
    std::vector<MessageId> reachable;
    for (MemberId source = 1; source <= 2; ++source) {
      for (std::uint64_t seq = 1; seq <= 48; ++seq) {
        MessageId id{source, seq};
        reachable.push_back(id);
        std::size_t holders = 0;
        for (const auto& [peer, d] : shadow_) holders += shadow_holds(d, id);
        ASSERT_EQ(table.holders_of(id), holders) << id;
      }
    }
    for (const std::vector<MemberId>& alive :
         {env_.region_members(), std::vector<MemberId>{1, 2, 5}}) {
      for (MemberId exclude : {MemberId{0}, MemberId{2}}) {
        ASSERT_EQ(table.least_loaded(alive, exclude),
                  shadow_least_loaded(shadow_, alive, exclude));
      }
    }
    std::vector<MessageId> stored;
    store_->for_each_entry(
        [&](const BufferStore::EntryView& e) { stored.push_back(e.id); });
    std::vector<DigestTable::HolderInfo> infos;
    for (const std::vector<MessageId>* ids : {&stored, &reachable}) {
      table.holder_infos(*ids, env_.self(), infos);
      ASSERT_EQ(infos.size(), ids->size());
      for (std::size_t i = 0; i < ids->size(); ++i) {
        ASSERT_EQ(infos[i], table.holder_info((*ids)[i], env_.self()))
            << (*ids)[i];
      }
    }
  }

  FuzzConfig cfg_;
  FakePolicyEnv env_;
  RandomEngine op_rng_;
  DigestShadow shadow_;
  std::unique_ptr<BufferStore> store_;
  std::vector<LoggedEvent> log_;
  std::vector<ShedRecord> sheds_;
};

constexpr PolicyKind kAllKinds[] = {
    PolicyKind::kTwoPhase, PolicyKind::kFixedTime,
    PolicyKind::kBufferEverything, PolicyKind::kHashBased,
    PolicyKind::kStability};

FuzzConfig config_for(PolicyKind kind, std::uint64_t seed) {
  FuzzConfig cfg;
  cfg.kind = kind;
  cfg.seed = seed;
  // The seed picks the budget and coordination so every combination is hit
  // across the seed sweep: three byte budgets, about nine, five and two
  // frames of the fuzz's 8–96-byte payloads (so one admission often
  // evicts several entries), and unlimited.
  switch (seed % 4) {
    case 0: cfg.budget = {600}; break;
    case 1: cfg.budget = {320}; break;
    case 2: cfg.budget = {160}; break;
    case 3: cfg.budget = {}; break;
  }
  cfg.coordination.enabled = (seed % 2) == 0;
  // Below the fuzzer's 1–30 ms advances, so the shed age gate passes and
  // fails across the corpus instead of suppressing sheds entirely.
  cfg.coordination.digest_interval = Duration::millis(5);
  return cfg;
}

/// Admissions in `log` that made room by removing two or more entries: a
/// run of budget departures (evictions and sheds) ended by the store.
std::size_t multi_victim_admissions(const std::vector<LoggedEvent>& log) {
  std::size_t admissions = 0, run = 0;
  for (const LoggedEvent& e : log) {
    if (e.ev == BufferEvent::kEvicted || e.ev == BufferEvent::kShedHandoff) {
      ++run;
      continue;
    }
    if (e.ev == BufferEvent::kStored && run >= 2) ++admissions;
    run = 0;
  }
  return admissions;
}

TEST(BufferPropertyTest, RandomizedOpsPreserveInvariants) {
  std::size_t multi_victim = 0;
  for (PolicyKind kind : kAllKinds) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(std::string(to_string(kind)) + " seed " +
                   std::to_string(seed));
      StoreFuzzer fuzzer(config_for(kind, seed));
      fuzzer.run();
      if (::testing::Test::HasFatalFailure()) return;
      multi_victim += multi_victim_admissions(fuzzer.log());
    }
  }
  // The byte budgets are small enough that the sort path runs too.
  EXPECT_GT(multi_victim, 0u);
}

TEST(BufferPropertyTest, IdenticalSeedsReplayIdentically) {
  // Determinism is the harness's foundational contract: the same seed must
  // produce the same event log, the same sheds, and the same final state —
  // eviction plans included, since they drive the evicted-id sequence.
  for (PolicyKind kind : kAllKinds) {
    for (std::uint64_t seed : {3u, 6u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + " seed " +
                   std::to_string(seed));
      StoreFuzzer a(config_for(kind, seed));
      StoreFuzzer b(config_for(kind, seed));
      a.run();
      b.run();
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(a.log(), b.log());
      EXPECT_EQ(a.state_digest(), b.state_digest());
      ASSERT_EQ(a.sheds().size(), b.sheds().size());
      for (std::size_t i = 0; i < a.sheds().size(); ++i) {
        EXPECT_EQ(a.sheds()[i].id, b.sheds()[i].id);
        EXPECT_EQ(a.sheds()[i].target, b.sheds()[i].target);
      }
    }
  }
}

TEST(BufferPropertyTest, EventLogLifecyclesAreWellFormed) {
  // Per-id lifecycle check over the full fuzzed log: departures alternate
  // with stores (an id never departs twice without being re-admitted), and
  // a promotion only happens while present. This is the observable form of
  // "no timer fires for a departed entry".
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    StoreFuzzer fuzzer(config_for(PolicyKind::kTwoPhase, seed));
    fuzzer.run();
    if (::testing::Test::HasFatalFailure()) return;
    std::map<MessageId, bool> present;
    for (const LoggedEvent& e : fuzzer.log()) {
      switch (e.ev) {
        case BufferEvent::kStored:
          ASSERT_FALSE(present[e.id]) << "double store of " << e.id;
          present[e.id] = true;
          break;
        case BufferEvent::kPromotedLongTerm:
          ASSERT_TRUE(present[e.id]) << "promotion of departed " << e.id;
          break;
        case BufferEvent::kDiscarded:
        case BufferEvent::kEvicted:
        case BufferEvent::kHandedOff:
        case BufferEvent::kShedHandoff:
          ASSERT_TRUE(present[e.id]) << "departure of departed " << e.id;
          present[e.id] = false;
          break;
      }
    }
  }
}

TEST(BufferPropertyTest, RetainPrunesDepartedAdvertisers) {
  // Regression: a departed member's last digest must stop counting — a
  // stale advertisement would let a survivor evict what is now the
  // region's actual last copy, or elect a dead keeper (see
  // Endpoint::digest_tick, which prunes against the live view each
  // period).
  DigestTable table;
  MessageId id{1, 5};
  table.update(1, 10, {{1, 5, 1}});
  table.update(2, 20, {{1, 5, 1}});
  table.update(3, 30, {{1, 5, 1}});
  ASSERT_EQ(table.holders_of(id), 3u);

  table.retain({0, 1, 3});  // member 2 left/crashed
  EXPECT_EQ(table.holders_of(id), 2u);
  EXPECT_FALSE(table.has_peer(2));
  EXPECT_TRUE(table.has_peer(1));
  EXPECT_TRUE(table.has_peer(3));
  // The departed member can no longer be a shed target either.
  EXPECT_EQ(table.least_loaded({0, 1, 2, 3}, 0), MemberId{1});

  table.retain({0});  // everyone else gone
  EXPECT_EQ(table.peer_count(), 0u);
  EXPECT_EQ(table.holders_of(id), 0u);
  // With no advertisers left, any member elects itself keeper.
  EXPECT_TRUE(table.keeper_is(id, 0));

  // A refresh reuses the row's range storage: when a row shrinks from three
  // ranges to one, nothing of the longer advertisement may survive.
  const std::vector<MessageId> ids = {{1, 5}, {1, 7}, {2, 2}};
  table.update(4, 40, {{1, 5, 1}, {1, 7, 1}, {2, 1, 3}});
  std::vector<DigestTable::HolderInfo> infos;
  table.holder_infos(ids, 0, infos);
  ASSERT_EQ(infos.size(), 3u);
  for (const DigestTable::HolderInfo& info : infos) EXPECT_EQ(info.holders, 1u);
  table.update(4, 40, {{1, 5, 1}});
  EXPECT_EQ(table.holders_of(MessageId{1, 5}), 1u);
  EXPECT_EQ(table.holders_of(MessageId{1, 7}), 0u);
  EXPECT_EQ(table.holders_of(MessageId{2, 2}), 0u);
  table.holder_infos(ids, 0, infos);
  EXPECT_EQ(infos[0].holders, 1u);
  EXPECT_EQ(infos[1].holders, 0u);
  EXPECT_EQ(infos[2].holders, 0u);
}

TEST(BufferPropertyTest, DigestAgingDropsSeveredAdvertisersButNotFreshOnes) {
  // Regression for the partition half of stale-advertiser pruning: a
  // severed-but-alive peer stays in the membership view, so retain() keeps
  // its last digest forever — only the missed-refresh aging can drop it.
  // An entry must survive exactly kMaxMissedDigests quiet periods, die on
  // the next, and any update() in between must reset the clock.
  DigestTable table;
  MessageId id{1, 5};
  table.update(1, 10, {{1, 5, 1}});
  table.update(2, 20, {{1, 5, 1}});
  ASSERT_EQ(table.holders_of(id), 2u);

  // Peer 2 refreshes every period; peer 1 goes quiet (severed).
  for (std::size_t period = 0; period < kMaxMissedDigests; ++period) {
    EXPECT_EQ(table.age(), 0u) << "period " << period;
    table.update(2, 20, {{1, 5, 1}});
  }
  // Through kMaxMissedDigests quiet periods the entry still counts: a slow
  // digest is not a partition.
  EXPECT_TRUE(table.has_peer(1));
  EXPECT_EQ(table.holders_of(id), 2u);
  // One more quiet period crosses the threshold: only the quiet peer dies.
  EXPECT_EQ(table.age(), 1u);
  EXPECT_FALSE(table.has_peer(1));
  EXPECT_TRUE(table.has_peer(2));
  EXPECT_EQ(table.holders_of(id), 1u);

  // A refresh anywhere along the way resets the clock to zero.
  table.update(1, 10, {{1, 5, 1}});
  for (std::size_t period = 0; period < kMaxMissedDigests; ++period) {
    EXPECT_EQ(table.age(), 0u);
    table.update(1, 10, {{1, 5, 1}});
    table.update(2, 20, {{1, 5, 1}});
  }
  EXPECT_EQ(table.peer_count(), 2u);
}

TEST(BufferPropertyTest, CoordinatedShedsRequireAdvertisedSoleCopy) {
  // Deterministic scenario distilled from the fuzz corpus: under
  // coordination, a victim with an advertised replica is evicted in place,
  // a sole-copy victim is shed to the least-loaded advertising peer.
  FakePolicyEnv env(/*region_size=*/4, /*self=*/0, /*seed=*/7);
  CoordinationParams coord;
  coord.enabled = true;
  coord.digest_interval = Duration::millis(1);  // below the test's advances
  auto store = make_store(BufferEverythingParams{}, frame_budget(2), coord);
  store->bind(&env);
  std::vector<ShedRecord> sheds;
  store->set_shed_handler([&](const proto::Data& d, MemberId target) {
    sheds.push_back({d.id, target});
    return true;
  });
  // Peer 2 is lighter than peer 1; neither advertises our entries, so both
  // stored entries are sole copies.
  store->digests().update(1, 900, {});
  store->digests().update(2, 100, {});
  store->store(make_data(1, 1));
  env.advance(Duration::millis(1));
  store->store(make_data(1, 2));
  store->store(make_data(1, 3));  // pressure: sole-copy LRU {1,1} must shed
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds[0].id, (MessageId{1, 1}));
  EXPECT_EQ(sheds[0].target, MemberId{2});  // least-loaded advertised peer
  EXPECT_EQ(store->stats().shed, 1u);
  EXPECT_EQ(store->stats().evicted, 0u);

  // Now {1,2} gains an advertised replica: the next pressure evicts it in
  // place (redundant victims are not shed) even though {1,4} is fresher.
  store->digests().update(1, 900, {{1, 2, 1}});
  store->store(make_data(1, 4));
  ASSERT_EQ(sheds.size(), 1u);  // no new shed
  EXPECT_EQ(store->stats().evicted, 1u);
  EXPECT_FALSE(store->has(MessageId{1, 2}));
}

TEST(FlowControlPropertyTest, RandomizedFeedbackPreservesWindowInvariants) {
  // The flow-control axis of the fuzz layer: a FlowController driven by a
  // randomized interleaving of admitted sends, peer cursor acks (including
  // stale and absurd ones), occupancy reports and peer syncs must
  // always satisfy:
  //   - credits() never exceeds window_size (the hard pacing bound);
  //   - send_seq, the window floor, outstanding and the AIMD window match a
  //     shadow model exactly;
  //   - may_send() holds exactly when credits remain.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomEngine rng(seed ^ 0xF10BA11ULL);
    FlowControlParams params;
    params.enabled = true;
    params.window_size = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    params.adaptive = (seed % 2) == 1;  // odd seeds run the AIMD window
    FlowController fc(params, /*self_budget_bytes=*/1024);

    // Shadow model: per-peer cursors and the AIMD window. A static window
    // is an AIMD window whose floor equals its ceiling.
    std::uint64_t send_seq = 0;
    std::map<MemberId, std::uint64_t> cursors;
    std::map<MemberId, std::uint64_t> reported;  // genuine acks, monotone
    const std::uint32_t min_window =
        params.adaptive ? std::min(kMinAdaptiveWindow, params.window_size)
                        : params.window_size;
    std::uint32_t shadow_cwnd = min_window;
    auto shadow_floor = [&cursors] {
      std::uint64_t floor = 0;
      bool first = true;
      for (const auto& [peer, cur] : cursors) {
        if (first || cur < floor) floor = cur;
        first = false;
      }
      return floor;
    };

    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      std::int64_t dice = rng.uniform_int(0, 99);
      if (dice < 40) {
        if (fc.may_send()) {
          fc.on_frame_sent();
          ++send_seq;
        }
      } else if (dice < 65) {
        // A cursor ack: sometimes stale, sometimes beyond what was sent.
        MemberId peer = static_cast<MemberId>(rng.uniform_int(1, 4));
        std::uint64_t cursor =
            static_cast<std::uint64_t>(rng.uniform_int(0, 12));
        fc.on_cursor(peer, cursor);
        std::uint64_t clamped = std::min(cursor, send_seq);
        auto [rit, rinserted] = reported.try_emplace(peer, clamped);
        if (!rinserted && clamped > rit->second) rit->second = clamped;
        auto [it, inserted] = cursors.try_emplace(peer, clamped);
        if (!inserted && clamped > it->second) it->second = clamped;
      } else if (dice < 78) {
        MemberId peer = static_cast<MemberId>(rng.uniform_int(1, 4));
        std::uint64_t use = static_cast<std::uint64_t>(rng.uniform_int(0, 2048));
        if (rng.uniform_int(0, 1) == 0) {
          fc.on_peer_budget(peer, use,
                            static_cast<std::uint64_t>(rng.uniform_int(0, 2048)));
        } else {
          fc.on_peer_occupancy(
              peer, use, static_cast<std::uint64_t>(rng.uniform_int(0, 8)));
        }
      } else if (dice < 88) {
        // A view or partition change: peers outside the reachable set are
        // dropped; once anything was sent, every reachable peer without a
        // cursor (try_emplace keeps a real one) is seeded at the floor over
        // the peers that remain.
        std::vector<MemberId> reachable;
        for (MemberId m = 1; m <= 5; ++m) {
          if (rng.uniform_int(0, 4) != 0) reachable.push_back(m);
        }
        fc.sync_peers(reachable);
        auto gone = [&reachable](const auto& entry) {
          return std::find(reachable.begin(), reachable.end(), entry.first) ==
                 reachable.end();
        };
        std::erase_if(cursors, gone);
        std::erase_if(reported, gone);
        if (send_seq > 0) {
          std::uint64_t floor = shadow_floor();
          for (MemberId m : reachable) cursors.try_emplace(m, floor);
        }
      } else if (dice < 95) {
        // AIMD signals: a clean round grows by one up to window_size, a
        // loss halves down to the minimum window.
        if (rng.uniform_int(0, 2) != 0) {
          fc.on_clean_round();
          if (shadow_cwnd < params.window_size) ++shadow_cwnd;
        } else {
          fc.on_loss();
          shadow_cwnd = std::max(min_window, shadow_cwnd / 2);
        }
      } else if (dice < 98) {
        // The stalled-cursor release: fires only when every floor-holding
        // binding is seeded ahead of its peer's genuine reports; an honest
        // floor holder pins the floor. Mirror the two-pass check exactly.
        auto shadow_release = [&] {
          if (cursors.empty()) return false;
          std::uint64_t floor = shadow_floor();
          if (floor >= send_seq) return false;
          for (const auto& [peer, cur] : cursors) {
            if (cur != floor) continue;
            auto rit = reported.find(peer);
            std::uint64_t rep = rit == reported.end() ? 0 : rit->second;
            if (rep >= cur) return false;
          }
          for (auto& [peer, cur] : cursors) {
            if (cur == floor) cur = floor + 1;
          }
          return true;
        };
        bool released = fc.release_stalled_peers();
        ASSERT_EQ(released, shadow_release());
      } else {
        // Quiescent probe: repeated queries must not mutate state.
        (void)fc.may_send();
        (void)fc.credits();
        (void)fc.pressured();
      }

      // --- invariants, after every op ---
      std::uint64_t floor = shadow_floor();
      ASSERT_LE(fc.credits(), params.window_size);
      ASSERT_EQ(fc.current_window(), shadow_cwnd);
      ASSERT_EQ(fc.send_seq(), send_seq);
      ASSERT_EQ(fc.window_floor(), floor);
      ASSERT_EQ(fc.outstanding(), send_seq - floor);
      ASSERT_EQ(fc.credits(),
                fc.outstanding() >= fc.effective_window()
                    ? 0u
                    : fc.effective_window() - fc.outstanding());
      ASSERT_EQ(fc.may_send(), fc.credits() > 0);
    }
  }
}

}  // namespace
}  // namespace rrmp::buffer

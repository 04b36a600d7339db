// Edge-case and failure-injection tests for the endpoint: search cache,
// relay suppression, query back-off races, multiple sources, control-plane
// loss, full-stack soak.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace rrmp::harness {
namespace {

TEST(SearchCache, StragglerRedirectedWithoutNewSearch) {
  ClusterConfig cc;
  cc.region_sizes = {20, 1};
  cc.seed = 101;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  for (MemberId m : region0) {
    if (m == 4) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(7, id, requester);
  cluster.run_until_quiet(Duration::seconds(2));
  std::uint64_t searches_first = cluster.metrics().counters().searches_started;
  EXPECT_GE(searches_first, 1u);

  // A second remote request shortly after: the found-cache at member 7
  // redirects straight to the holder with no new search.
  cluster.inject_remote_request(7, id, requester);
  cluster.run_until_quiet(Duration::seconds(1));
  EXPECT_EQ(cluster.metrics().counters().searches_started, searches_first);
  EXPECT_GE(cluster.metrics().counters().remote_repairs_sent, 2u);
}

TEST(SearchCache, ExpiresAfterTtl) {
  ClusterConfig cc;
  cc.region_sizes = {10, 1};
  cc.seed = 102;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  for (MemberId m : region0) {
    if (m == 2) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(5, id, requester);
  cluster.run_until_quiet(Duration::seconds(1));
  std::uint64_t searches_first = cluster.metrics().counters().searches_started;

  // Long after the cache TTL, the same entry point must search again.
  cluster.run_for(kSearchCacheTtl + Duration::millis(150));
  cluster.inject_remote_request(5, id, requester);
  cluster.run_until_quiet(Duration::seconds(1));
  EXPECT_GT(cluster.metrics().counters().searches_started, searches_first);
}

TEST(RegionalRelay, BackoffSuppressesDuplicatesWhenWindowExceedsLatency) {
  auto run = [](Duration backoff, std::uint64_t seed) {
    ClusterConfig cc;
    cc.region_sizes = {10, 20};
    cc.inter_one_way = Duration::millis(15);  // repairs land inside T
    cc.protocol.lambda = 5.0;                 // several concurrent repairs
    cc.protocol.regional_backoff = backoff;
    cc.seed = seed;
    Cluster cluster(cc);
    std::vector<MemberId> parent = cluster.region_members(0);
    cluster.inject_data_to(parent[0], 1, parent);
    cluster.inject_session_to(parent[0], 1, cluster.region_members(1));
    cluster.run_until_quiet(Duration::seconds(3));
    return cluster.metrics().counters();
  };
  double none = 0, with = 0;
  std::uint64_t suppressed = 0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    none += static_cast<double>(run(Duration::zero(), 200 + s).regional_multicasts);
    auto c = run(Duration::millis(15), 200 + s);
    with += static_cast<double>(c.regional_multicasts);
    suppressed += c.relays_suppressed;
  }
  EXPECT_LT(with, none);
  EXPECT_GT(suppressed, 0u);
}

TEST(QueryBackoff, RepliesSuppressedByEarlierAnnouncement) {
  ClusterConfig cc;
  cc.region_sizes = {30, 1};
  cc.seed = 103;
  cc.protocol.search_strategy = Config::SearchStrategy::kMulticastQuery;
  // The back-off window follows the policy's C: U(0, 30 x 2 ms = 60 ms).
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 30.0;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  cluster.force_discard(region0[5], id);  // the query entry point
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(region0[5], id, requester);
  cluster.run_until_quiet(Duration::seconds(1));
  // 29 members hold the message, but the wide back-off window suppresses
  // most replies (window 60ms >> 5ms propagation).
  EXPECT_LT(cluster.metrics().counters().searches_completed, 8u);
  EXPECT_GT(cluster.metrics().counters().relays_suppressed, 15u);
  EXPECT_TRUE(cluster.endpoint(requester).has_received(id));
}

TEST(MultiSource, IndependentSequenceSpacesPerSource) {
  ClusterConfig cc;
  cc.region_sizes = {15};
  cc.data_loss = 0.3;
  cc.seed = 104;
  Cluster cluster(cc);
  // Three different members multicast concurrently.
  std::vector<MessageId> ids;
  for (int round = 0; round < 3; ++round) {
    for (MemberId sender : {0u, 5u, 9u}) {
      ids.push_back(cluster.endpoint(sender).multicast({1, 2}));
    }
  }
  cluster.run_for(Duration::seconds(2));
  for (const MessageId& id : ids) {
    EXPECT_TRUE(cluster.all_received(id))
        << "source " << id.source << " seq " << id.seq;
  }
  // Sequence spaces did not interfere: 3 messages per source.
  for (MemberId sender : {0u, 5u, 9u}) {
    EXPECT_EQ(cluster.endpoint(sender).highest_sent(), 3u);
  }
}

TEST(ControlLoss, RecoveryRetriesThroughLostRequestsAndRepairs) {
  ClusterConfig cc;
  cc.region_sizes = {20};
  cc.control_loss = 0.3;  // 30% of requests/repairs vanish
  cc.seed = 105;
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 12.0;  // hold copies through the noise
  Cluster cluster(cc);
  std::vector<MemberId> holders = {0, 1, 2, 3, 4};
  MessageId id = cluster.inject(0, 1, holders);
  cluster.run_for(Duration::seconds(5));
  EXPECT_TRUE(cluster.all_received(id));
  // Retries were visibly needed.
  EXPECT_GT(cluster.metrics().counters().local_requests_sent, 15u);
  EXPECT_GT(cluster.network().stats().dropped, 0u);
}

TEST(Handoff, ToMemberAlreadyHoldingLongTermIsIdempotent) {
  ClusterConfig cc;
  cc.region_sizes = {3};
  cc.seed = 106;
  Cluster cluster(cc);
  MessageId id = cluster.inject_data_to(0, 1, cluster.region_members(0));
  cluster.force_long_term(1, id);
  cluster.force_long_term(2, id);
  cluster.force_discard(0, id);
  // Member 1 leaves; its handoff can only go to 0 or 2.
  cluster.leave(1);
  cluster.run_for(Duration::millis(50));
  // No duplication: each survivor holds at most one copy.
  std::size_t total = cluster.count_buffered(id);
  EXPECT_GE(total, 1u);
  EXPECT_LE(total, 2u);
  EXPECT_EQ(cluster.count_long_term(id), total);
}

TEST(Repair, UnknownSourceCreatesTracker) {
  ClusterConfig cc;
  cc.region_sizes = {4};
  cc.seed = 107;
  Cluster cluster(cc);
  // A repair arrives for a source member 3 has never heard of.
  proto::Repair r{MessageId{2, 5}, {1, 2, 3}, false};
  cluster.endpoint(3).handle_message(proto::Message{r}, 1);
  EXPECT_TRUE(cluster.endpoint(3).has_received(MessageId{2, 5}));
  // Gaps 1..4 of that source were detected from the jump to seq 5.
  EXPECT_EQ(cluster.endpoint(3).missing_from(2).size(), 4u);
}

TEST(Soak, FullStackWithChurnLossAndFailureDetection) {
  ClusterConfig cc;
  cc.region_sizes = {20, 15, 10};
  cc.data_loss = 0.25;
  cc.control_loss = 0.02;
  cc.jitter = 0.2;
  cc.seed = 108;
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 8.0;
  cc.protocol.lambda = 2.0;
  Cluster cluster(cc);

  // 60 messages over 600 ms.
  for (int i = 0; i < 60; ++i) {
    cluster.schedule_script(TimePoint::zero() + Duration::millis(10) * i,
                              [&cluster] {
                                cluster.endpoint(0).multicast({0xAA, 0xBB});
                              });
  }
  // Churn: two graceful leaves, one crash, spread across the run.
  cluster.schedule_script(TimePoint::zero() + Duration::millis(150),
                            [&cluster] { cluster.leave(7); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(300),
                            [&cluster] { cluster.crash(25); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(450),
                            [&cluster] { cluster.leave(40); });

  cluster.run_for(Duration::seconds(6));

  std::size_t undelivered = 0;
  for (std::uint64_t s = 1; s <= 60; ++s) {
    if (!cluster.all_received(MessageId{0, s})) ++undelivered;
  }
  EXPECT_EQ(undelivered, 0u);
  // Nobody is wedged.
  for (MemberId m = 0; m < cluster.size(); ++m) {
    if (!cluster.directory().alive(m)) continue;
    EXPECT_EQ(cluster.endpoint(m).active_recoveries(), 0u) << "member " << m;
    EXPECT_EQ(cluster.endpoint(m).active_searches(), 0u) << "member " << m;
  }
}

}  // namespace
}  // namespace rrmp::harness

// Unit + harness tests for the hierarchical repair subsystem (src/repair):
// rendezvous election and end-to-end multi-level recovery through
// representatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>

#include "harness/cluster.h"
#include "repair/hierarchy.h"

namespace rrmp {
namespace {

// ---- pure election ---------------------------------------------------------

TEST(HierarchyElectionTest, OrderIndependent) {
  std::vector<MemberId> a = {5, 9, 1, 14, 3};
  std::vector<MemberId> b = a;
  std::sort(b.begin(), b.end());
  std::reverse(b.begin(), b.end());
  for (std::uint64_t gen = 0; gen < 4; ++gen) {
    EXPECT_EQ(repair::elect_representative(a, gen),
              repair::elect_representative(b, gen));
  }
}

TEST(HierarchyElectionTest, EmptyAndSingleton) {
  EXPECT_EQ(repair::elect_representative({}, 0), kInvalidMember);
  EXPECT_EQ(repair::elect_representative({42}, 0), MemberId{42});
  EXPECT_EQ(repair::elect_representative({42}, 99), MemberId{42});
}

TEST(HierarchyElectionTest, WinnerIsAMember) {
  std::vector<MemberId> members;
  for (MemberId m = 100; m < 120; ++m) members.push_back(m);
  for (std::uint64_t gen = 0; gen < 8; ++gen) {
    MemberId rep = repair::elect_representative(members, gen);
    EXPECT_NE(std::find(members.begin(), members.end(), rep), members.end());
  }
}

TEST(HierarchyElectionTest, GenerationReshufflesDeterministically) {
  std::vector<MemberId> members;
  for (MemberId m = 0; m < 16; ++m) members.push_back(m);
  // Deterministic for a fixed generation...
  EXPECT_EQ(repair::elect_representative(members, 5),
            repair::elect_representative(members, 5));
  // ...and the generation axis actually moves the assignment: over eight
  // generations of sixteen candidates, at least two distinct winners
  // appear (pure function — no flakiness).
  std::vector<MemberId> winners;
  for (std::uint64_t gen = 0; gen < 8; ++gen) {
    winners.push_back(repair::elect_representative(members, gen));
  }
  std::sort(winners.begin(), winners.end());
  winners.erase(std::unique(winners.begin(), winners.end()), winners.end());
  EXPECT_GE(winners.size(), 2u);
}

// ---- end-to-end hierarchical recovery --------------------------------------

harness::ClusterConfig hierarchy_chain_config(std::size_t depth,
                                              std::size_t region_size,
                                              std::uint64_t seed) {
  harness::ClusterConfig cc;
  cc.region_sizes.assign(depth + 1, region_size);
  cc.parents.resize(depth + 1);
  for (std::size_t r = 0; r <= depth; ++r) {
    cc.parents[r] = r == 0 ? 0 : static_cast<RegionId>(r - 1);
  }
  cc.seed = seed;
  cc.protocol.hierarchy.enabled = true;
  return cc;
}

TEST(HierarchicalRecoveryTest, DeepChainRecoversThroughRepresentatives) {
  harness::Cluster cluster(hierarchy_chain_config(3, 10, 0x41));
  std::vector<MemberId> root = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(root[0], 1, root);
  for (RegionId r = 1; r <= 3; ++r) {
    cluster.inject_session_to(root[0], 1, cluster.region_members(r));
  }
  cluster.run_until_quiet(Duration::seconds(30));
  EXPECT_TRUE(cluster.all_received(id));
  // The funnel property: only one member per non-root region escalates, so
  // cross-region request traffic is per-region, not per-member. Allow
  // generous retries and still stay far under the flat path's volume.
  EXPECT_GT(cluster.metrics().counters().remote_requests_sent, 0u);
  EXPECT_LE(cluster.metrics().counters().remote_requests_sent, 30u);
}

TEST(HierarchicalRecoveryTest, RunsAreDeterministic) {
  auto run = [](std::size_t shards) {
    harness::ClusterConfig cc = hierarchy_chain_config(2, 8, 0x42);
    cc.shards = shards;
    harness::Cluster cluster(cc);
    std::vector<MemberId> root = cluster.region_members(0);
    MessageId id = cluster.inject_data_to(root[0], 1, root);
    for (RegionId r = 1; r <= 2; ++r) {
      cluster.inject_session_to(root[0], 1, cluster.region_members(r));
    }
    cluster.run_until_quiet(Duration::seconds(30));
    EXPECT_TRUE(cluster.all_received(id));
    return cluster.events_fired();
  };
  std::uint64_t once = run(1);
  EXPECT_EQ(once, run(1));
  EXPECT_EQ(once, run(2));
}

TEST(HierarchicalRecoveryTest, RepresentativeCrashFailsOver) {
  // Crash region 1's elected representative mid-recovery; the remaining
  // members re-elect deterministically and recovery still completes.
  harness::ClusterConfig cc = hierarchy_chain_config(1, 8, 0x44);
  harness::Cluster cluster(cc);
  MemberId rep = repair::elect_representative(cluster.region_members(1), 0);
  ASSERT_NE(rep, kInvalidMember);

  std::vector<MemberId> root = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(root[0], 1, root);
  cluster.inject_session_to(root[0], 1, cluster.region_members(1));
  cluster.schedule_script_after(Duration::millis(5),
                                [&cluster, rep] { cluster.crash(rep); });
  cluster.run_until_quiet(Duration::seconds(30));
  for (MemberId m : cluster.region_members(1)) {
    if (m == rep) continue;
    EXPECT_TRUE(cluster.endpoint(m).has_received(id)) << "member " << m;
  }
}

/// Route every frame `m` receives through `tap` before its endpoint.
void tap_frames(harness::Cluster& cluster, MemberId m,
                std::function<void(const proto::Message&)> tap) {
  Endpoint* ep = &cluster.endpoint(m);
  cluster.host(m).set_receiver(
      [ep, tap = std::move(tap)](const proto::Message& msg, MemberId from) {
        tap(msg);
        ep->handle_message(msg, from);
      });
}

TEST(HierarchicalRecoveryTest, IntermediateRepresentativeForwardsHopPlusOne) {
  // Chain 2 -> 1 -> 0 and only region 2 learns that seq 1 exists: region
  // 2's representative escalates with hop 0, and region 1's representative,
  // which never saw the message either, must pass it on with hop 1 from its
  // very first Escalate, not only on its retries.
  std::vector<std::uint32_t> hops_into_root;  // outlives the cluster's taps
  harness::Cluster cluster(hierarchy_chain_config(2, 6, 0x45));
  std::vector<MemberId> root = cluster.region_members(0);
  for (MemberId m : root) {
    tap_frames(cluster, m, [&hops_into_root](const proto::Message& msg) {
      if (const auto* e = std::get_if<proto::Escalate>(&msg)) {
        hops_into_root.push_back(e->hop);
      }
    });
  }
  cluster.inject_session_to(root[0], 1, cluster.region_members(2));
  cluster.run_for(Duration::millis(500));
  ASSERT_FALSE(hops_into_root.empty());
  EXPECT_EQ(hops_into_root.front(), 1u);
}

TEST(HierarchicalRecoveryTest, EscalateAtHopLimitIsDropped) {
  // The runaway-forwarding guard: an Escalate that already climbed
  // kMaxEscalateHops levels is dropped (no waiter, no recovery), while one
  // a level short of the limit is still served.
  harness::Cluster cluster(hierarchy_chain_config(1, 6, 0x46));
  std::vector<MemberId> root = cluster.region_members(0);
  MemberId child = cluster.region_members(1)[0];
  MessageId id{root[0], 1};
  Endpoint& ep = cluster.endpoint(root[1]);
  ep.handle_message(proto::Escalate{id, child, repair::kMaxEscalateHops},
                    child);
  EXPECT_EQ(ep.waiter_count(), 0u);
  EXPECT_EQ(ep.active_recoveries(), 0u);
  ep.handle_message(proto::Escalate{id, child, repair::kMaxEscalateHops - 1},
                    child);
  EXPECT_EQ(ep.waiter_count(), 1u);
  EXPECT_EQ(ep.active_recoveries(), 1u);
}

TEST(HierarchicalRecoveryTest, EscalationRetriesBackOffExponentially) {
  // Nobody holds the message, so region 1's representative escalates it
  // again and again: retry k waits timeout << min(k - 1, kMaxBackoffShift),
  // i.e. 1, 2, 4, 8 and then 8 request timeouts between Escalates.
  std::vector<TimePoint> arrivals;  // outlives the cluster's taps
  harness::Cluster cluster(hierarchy_chain_config(1, 6, 0x47));
  std::vector<MemberId> root = cluster.region_members(0);
  MemberId rep = repair::elect_representative(cluster.region_members(1), 0);
  MemberId parent_rep = repair::elect_representative(root, 0);
  for (MemberId m : root) {
    const harness::SimHost* host = &cluster.host(m);
    tap_frames(cluster, m, [&arrivals, host, rep](const proto::Message& msg) {
      const auto* e = std::get_if<proto::Escalate>(&msg);
      if (e != nullptr && e->requester == rep) arrivals.push_back(host->now());
    });
  }
  cluster.inject_session_to(root[0], 1, cluster.region_members(1));
  cluster.run_for(Duration::seconds(3));
  Duration timeout = cluster.host(rep).rtt_estimate(parent_rep);
  const std::int64_t spacing[] = {1, 2, 4, 8, 8};
  ASSERT_GT(arrivals.size(), std::size(spacing));
  for (std::size_t i = 0; i < std::size(spacing); ++i) {
    EXPECT_EQ((arrivals[i + 1] - arrivals[i]).us(),
              (timeout * spacing[i]).us())
        << "gap " << i;
  }
}

}  // namespace
}  // namespace rrmp

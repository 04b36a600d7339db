// Paper-fidelity properties not covered elsewhere: even spreading of the
// long-term buffering load (§3.2 "the load of long-term buffering is spread
// evenly among all members"), behavior under bursty control-plane loss, and
// robustness when members crash mid-search.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/cluster.h"
#include "harness/fault_script.h"

namespace rrmp::harness {
namespace {

TEST(Fairness, LongTermLoadSpreadsEvenlyAcrossMembers) {
  ClusterConfig cc;
  cc.region_sizes = {30};
  cc.seed = 301;
  Cluster cluster(cc);
  std::vector<MemberId> all = cluster.region_members(0);
  const int kMessages = 300;
  for (std::uint64_t s = 1; s <= kMessages; ++s) {
    cluster.inject_data_to(0, s, all);
  }
  cluster.run_for(Duration::millis(200));  // all idle decisions done

  // Per-member long-term load: expected kMessages * C/n = 300*6/30 = 60.
  std::vector<double> load(all.size(), 0);
  for (MemberId m : all) {
    std::size_t count = 0;
    for (std::uint64_t s = 1; s <= kMessages; ++s) {
      if (cluster.endpoint(m).buffer().is_long_term(MessageId{0, s})) ++count;
    }
    load[m] = static_cast<double>(count);
  }
  double lo = *std::min_element(load.begin(), load.end());
  double hi = *std::max_element(load.begin(), load.end());
  // Binomial(300, 0.2): mean 60, sd ~6.9. All members within ~4.5 sd.
  EXPECT_GT(lo, 30.0);
  EXPECT_LT(hi, 95.0);
  // No repair-server hotspot: the heaviest member carries a small multiple
  // of the lightest (contrast: a repair server carries 300, others 0).
  EXPECT_LT(hi / std::max(lo, 1.0), 3.0);
}

TEST(Fairness, HashBasedLoadAlsoBalanced) {
  ClusterConfig cc;
  cc.region_sizes = {30};
  cc.seed = 302;
  cc.policy = buffer::HashBasedParams{6, Duration::millis(20)};
  Cluster cluster(cc);
  std::vector<MemberId> all = cluster.region_members(0);
  const int kMessages = 300;
  for (std::uint64_t s = 1; s <= kMessages; ++s) {
    cluster.inject_data_to(0, s, all);
  }
  cluster.run_for(Duration::millis(100));
  std::vector<double> load(all.size(), 0);
  for (MemberId m : all) {
    load[m] = static_cast<double>(cluster.endpoint(m).buffer().count());
  }
  double lo = *std::min_element(load.begin(), load.end());
  double hi = *std::max_element(load.begin(), load.end());
  EXPECT_GT(lo, 30.0);
  EXPECT_LT(hi, 95.0);
}

TEST(BurstLoss, RecoveryConvergesUnderBurstyControlLoss) {
  ClusterConfig cc;
  cc.region_sizes = {25};
  cc.seed = 303;
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 12.0;
  Cluster cluster(cc);
  // Bursty control-plane loss: 80% for 20 ms of every 200 ms, clean between.
  FaultScript bursts;
  for (int k = 0; k < 25; ++k) {
    TimePoint start = TimePoint::zero() + Duration::millis(200) * k;
    bursts.control_loss(start, 0.8)
        .control_loss(start + Duration::millis(20), 0.0);
  }
  bursts.schedule_on(cluster);
  std::vector<MemberId> holders = {0, 1, 2};
  MessageId id = cluster.inject(0, 1, holders);
  cluster.run_for(Duration::seconds(5));
  EXPECT_TRUE(cluster.all_received(id));
  EXPECT_GT(cluster.network().stats().dropped, 0u);
}

TEST(CrashDuringSearch, SearchRoutesAroundDeadMembers) {
  ClusterConfig cc;
  cc.region_sizes = {15, 1};
  cc.seed = 304;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  // One bufferer; everyone else discarded.
  for (MemberId m : region0) {
    if (m == 9) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  // Crash a third of the non-bufferers before the search starts: probes to
  // them vanish into the void and must be retried elsewhere.
  for (MemberId m : {2u, 4u, 6u, 8u, 11u}) {
    cluster.crash(m);
  }
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(0, id, requester);
  cluster.run_until_quiet(Duration::seconds(3));
  EXPECT_TRUE(cluster.endpoint(requester).has_received(id));
}

TEST(CrashDuringSearch, LoneBuffererCrashMakesLossUnrecoverableButBounded) {
  ClusterConfig cc;
  cc.region_sizes = {10, 1};
  cc.seed = 305;
  cc.protocol.max_attempts = 20;  // bound the futile search
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  for (MemberId m : region0) {
    if (m == 3) {
      cluster.force_long_term(m, id);
    } else {
      cluster.force_discard(m, id);
    }
  }
  cluster.crash(3);  // the only copy dies
  MemberId requester = cluster.region_members(1)[0];
  cluster.inject_remote_request(0, id, requester);
  cluster.run_until_quiet(Duration::seconds(5));
  // Unrecoverable (paper §5's acknowledged case) — and the search machinery
  // terminated rather than spinning forever.
  EXPECT_FALSE(cluster.endpoint(requester).has_received(id));
  for (MemberId m : region0) {
    if (!cluster.directory().alive(m)) continue;
    EXPECT_EQ(cluster.endpoint(m).active_searches(), 0u) << "member " << m;
  }
}

TEST(StabilityWithChurn, LeaverNoLongerGatesStability) {
  ClusterConfig cc;
  cc.region_sizes = {8};
  cc.seed = 306;
  cc.policy = buffer::StabilityParams{};
  Cluster cluster(cc);
  // Member 7 never receives the message and then leaves; stability must
  // then be computed over the surviving view and release the buffers.
  std::vector<MemberId> holders;
  for (MemberId m = 0; m < 7; ++m) holders.push_back(m);
  MessageId id = cluster.inject_data_to(0, 1, holders);
  cluster.run_for(Duration::millis(50));
  EXPECT_EQ(cluster.count_buffered(id), 7u);  // 7 gates stability
  cluster.crash(7);
  cluster.run_for(Duration::millis(100));
  EXPECT_EQ(cluster.count_buffered(id), 0u);  // stable over the new view
}

}  // namespace
}  // namespace rrmp::harness

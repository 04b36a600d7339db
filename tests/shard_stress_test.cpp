// Sharded-cluster stress (tier2): a 16-region × 200-host cluster under
// bursty control-plane loss, run on the maximum shard count.
// Asserts the barrier exchange neither loses nor duplicates cross-region
// packets (conservation of the cross-lane counters), that every stream
// message is delivered everywhere exactly once, and that teardown is clean.
//
// RRMP_STRESS_HOSTS (env) overrides hosts-per-region — the ThreadSanitizer
// CI leg shrinks the cluster so the instrumented run stays inside the ctest
// timeout while still exercising every cross-thread code path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "harness/cluster.h"
#include "harness/fault_script.h"

namespace rrmp::harness {
namespace {

std::size_t hosts_per_region() {
  if (const char* env = std::getenv("RRMP_STRESS_HOSTS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 200;
}

TEST(ShardStress, SixteenRegionsUnderBurstLossConserveCrossRegionPackets) {
  constexpr std::size_t kRegions = 16;
  constexpr int kMessages = 6;
  const std::size_t hosts = hosts_per_region();

  ClusterConfig cc;
  cc.region_sizes.assign(kRegions, hosts);
  cc.seed = 0x57E55;
  cc.data_loss = 0.10;
  cc.control_loss = 0.01;
  cc.shards = 0;  // hardware concurrency, clamped to 16 lanes
  Cluster cluster(cc);
  ASSERT_EQ(cluster.lane_count(), kRegions);
  // Per-member delivery counts. Each member's handler runs only on its own
  // lane, and a lane runs on one worker at a time, so no lock is needed.
  std::vector<std::map<MessageId, int>> seen(cluster.size());
  for (MemberId m = 0; m < cluster.size(); ++m) {
    cluster.endpoint(m).set_delivery_handler(
        [&seen, m](const proto::Data& d) { ++seen[m][d.id]; });
  }

  // Bursty loss on the control plane (requests and repairs): 25% for 20 ms
  // of every 140 ms while the stream and its recovery run, over the 1%
  // floor. Each spike starts and ends at a script barrier.
  FaultScript bursts;
  for (int k = 0; k < 5; ++k) {
    TimePoint start = TimePoint::zero() + Duration::millis(140) * k;
    bursts.control_loss(start, 0.25)
        .control_loss(start + Duration::millis(20), 0.01);
  }
  bursts.schedule_on(cluster);

  for (int i = 0; i < kMessages; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(25) * i,
        [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(64, 0x5C));
        });
  }
  cluster.run_for(Duration::millis(25) * kMessages + Duration::millis(500));
  cluster.run_until_quiet(Duration::seconds(20));

  // Every message reached every member despite data loss + bursty control
  // loss (regional recovery, then cross-region requests).
  for (int seq = 1; seq <= kMessages; ++seq) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, static_cast<std::uint64_t>(seq)}))
        << "message " << seq << " not fully delivered";
  }

  // The sender's periodic session announcements never stop on their own, so
  // the run above ends with announcements still in flight. Halt the sender
  // and drain so the conservation check below can demand exact equality.
  cluster.endpoint(0).halt();
  cluster.run_until_quiet(Duration::seconds(30));

  // Cross-region packet conservation: every packet a lane put in its outbox
  // was inserted into exactly one destination queue and delivered exactly
  // once (no churn in this run, so nothing may vanish or double up).
  net::TrafficStats ts = cluster.network().stats();
  EXPECT_GT(ts.cross_lane_sends, 0u);
  EXPECT_EQ(ts.cross_lane_sends, ts.cross_lane_deliveries);
  EXPECT_TRUE(cluster.network().outboxes_empty());

  // Every member delivered every message, none of them twice.
  for (MemberId m = 0; m < cluster.size(); ++m) {
    ASSERT_EQ(seen[m].size(), static_cast<std::size_t>(kMessages))
        << "member " << m;
    for (const auto& [id, n] : seen[m]) {
      ASSERT_EQ(n, 1) << "duplicate delivery of " << id << " at member " << m;
    }
  }

  // Nobody is wedged mid-recovery.
  for (MemberId m = 0; m < cluster.size(); ++m) {
    ASSERT_EQ(cluster.endpoint(m).active_recoveries(), 0u) << "member " << m;
  }
  // Clean shutdown = scope exit without crash; ASan/TSan legs verify frees
  // and lock discipline.
}

TEST(ShardStress, ChurnDuringShardedRunKeepsConservationModuloDetaches) {
  // Crash + leave in distinct regions mid-run: cross-lane packets addressed
  // to detached members legitimately vanish, so conservation becomes an
  // inequality, but the exchange must still drain and the run stay stable.
  const std::size_t hosts = std::max<std::size_t>(8, hosts_per_region() / 10);
  ClusterConfig cc;
  cc.region_sizes.assign(8, hosts);
  cc.seed = 0xC4A05;
  cc.data_loss = 0.15;
  cc.control_loss = 0.02;
  cc.jitter = 0.10;
  cc.shards = 0;
  Cluster cluster(cc);

  for (int i = 0; i < 10; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(10) * i,
        [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(32, 0x7B));
        });
  }
  const MemberId crash_victim = static_cast<MemberId>(hosts + 1);      // region 1
  const MemberId leave_victim = static_cast<MemberId>(3 * hosts + 2);  // region 3
  cluster.schedule_script(TimePoint::zero() + Duration::millis(40),
                          [&cluster, crash_victim] { cluster.crash(crash_victim); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(80),
                          [&cluster, leave_victim] { cluster.leave(leave_victim); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(10));

  net::TrafficStats ts = cluster.network().stats();
  EXPECT_GT(ts.cross_lane_sends, 0u);
  EXPECT_GE(ts.cross_lane_sends, ts.cross_lane_deliveries);
  EXPECT_TRUE(cluster.network().outboxes_empty());
  for (int seq = 1; seq <= 10; ++seq) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, static_cast<std::uint64_t>(seq)}))
        << "message " << seq;
  }
}

}  // namespace
}  // namespace rrmp::harness

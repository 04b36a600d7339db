// The sharding determinism contract (ISSUE 2): Cluster::run with shards=k
// must produce byte-identical results for every k. A 4-region experiment
// with data loss, control loss, jitter, codec round-trips and mid-run churn
// is run at shards=1, 2 and 4 with the same seed; the merged metrics
// streams, counters, traffic stats, per-lane event counts and final clocks
// must all be exactly equal.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.h"
#include "test_env.h"

namespace rrmp::harness {
namespace {

struct RunDigest {
  RecordingSink::Counters counters;
  std::vector<RecordingSink::TimedEvent> deliveries;
  std::vector<RecordingSink::TimedEvent> stores;
  std::vector<RecordingSink::TimedEvent> discards;
  std::vector<RecordingSink::TimedEvent> promotions;
  std::vector<Duration> recovery_latencies;
  net::TrafficStats traffic;
  std::vector<std::uint64_t> per_lane_events;  // per-lane fired counts
  std::uint64_t events_fired = 0;
  TimePoint final_now;
  std::size_t total_buffered = 0;
  std::size_t lanes = 0;
  std::uint64_t evictions = 0;  // summed store stats (budgeted runs only)
  std::uint64_t sheds = 0;      // summed shed handoffs (coordinated runs)
};

RunDigest run_workload(std::size_t shards) {
  ClusterConfig cc;
  cc.region_sizes = {6, 5, 4, 5};
  cc.seed = 2026;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  Cluster cluster(cc);

  // A scripted stream with churn: 8 multicasts from the root sender, one
  // graceful leave in region 1 and one crash in region 2 mid-stream.
  for (int i = 0; i < 8; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i,
        [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x2D));
        });
  }
  cluster.schedule_script(TimePoint::zero() + Duration::millis(70),
                          [&cluster] { cluster.leave(8); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(110),
                          [&cluster] { cluster.crash(12); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  for (std::size_t lane = 0; lane < cluster.lane_count(); ++lane) {
    d.per_lane_events.push_back(cluster.network().lane_sim(lane).fired_count());
  }
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  return d;
}

void expect_identical(const RunDigest& a, const RunDigest& b,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(a.counters == b.counters) << "metrics counters diverge";
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.discards, b.discards);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.recovery_latencies, b.recovery_latencies);
  EXPECT_TRUE(a.traffic == b.traffic) << "traffic stats diverge";
  EXPECT_EQ(a.per_lane_events, b.per_lane_events);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.total_buffered, b.total_buffered);
}

TEST(ShardDeterminism, SameResultsForShards124) {
  RunDigest s1 = run_workload(1);
  RunDigest s2 = run_workload(2);
  RunDigest s4 = run_workload(4);

  // The workload must be non-trivial or the contract is vacuous.
  ASSERT_EQ(s1.lanes, 4u);
  ASSERT_GT(s1.deliveries.size(), 50u);
  ASSERT_GT(s1.counters.recoveries, 0u);
  ASSERT_GT(s1.traffic.cross_lane_sends, 0u);
  ASSERT_GT(s1.traffic.dropped, 0u);
  ASSERT_GT(s1.events_fired, 1000u);

  expect_identical(s1, s2, "shards=1 vs shards=2");
  expect_identical(s1, s4, "shards=1 vs shards=4");
}

RunDigest run_budgeted_workload(std::size_t shards) {
  // Same multi-region churny stream, but under a per-member buffer budget
  // small enough to force evictions: the eviction protocol (policy victim
  // picks + store removals) must be as shard-count-invariant as the rest of
  // the pipeline.
  ClusterConfig cc;
  cc.region_sizes = {6, 5, 4, 5};
  cc.seed = 2027;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  cc.protocol.buffer_budget = buffer::BufferBudget{256, 0};  // ~4 frames
  Cluster cluster(cc);

  for (int i = 0; i < 8; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i,
        [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x2D));
        });
  }
  cluster.schedule_script(TimePoint::zero() + Duration::millis(70),
                          [&cluster] { cluster.leave(8); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(110),
                          [&cluster] { cluster.crash(12); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  for (MemberId m = 0; m < cluster.size(); ++m) {
    d.evictions += cluster.endpoint(m).buffer().stats().evicted;
  }
  return d;
}

TEST(ShardDeterminism, EvictionEnabledRunsAreShardCountInvariant) {
  RunDigest s1 = run_budgeted_workload(1);
  RunDigest s2 = run_budgeted_workload(2);
  RunDigest s4 = run_budgeted_workload(4);

  // Evictions must actually have happened or the contract is vacuous.
  ASSERT_GT(s1.evictions, 0u);

  expect_identical(s1, s2, "budgeted shards=1 vs shards=2");
  expect_identical(s1, s4, "budgeted shards=1 vs shards=4");
  EXPECT_EQ(s1.evictions, s2.evictions);
  EXPECT_EQ(s1.evictions, s4.evictions);
}

RunDigest run_coordinated_workload(std::size_t shards) {
  // The budgeted churny stream again, now with cooperative region-wide
  // budgets: digest gossip, replica-aware (keeper-elected) eviction, and
  // shed handoffs — the first cross-member control loop in the buffer
  // subsystem. Its victim ordering depends on digest tables built from
  // received multicasts, so the whole loop must be as shard-count-invariant
  // as the rest of the pipeline.
  ClusterConfig cc;
  cc.region_sizes = {6, 5, 4, 5};
  cc.seed = 2028;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  cc.protocol.buffer_budget = buffer::BufferBudget{256, 0};  // ~4 frames
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(15);
  Cluster cluster(cc);

  for (int i = 0; i < 8; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i,
        [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x2D));
        });
  }
  cluster.schedule_script(TimePoint::zero() + Duration::millis(70),
                          [&cluster] { cluster.leave(8); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(110),
                          [&cluster] { cluster.crash(12); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  for (MemberId mem = 0; mem < cluster.size(); ++mem) {
    d.evictions += cluster.endpoint(mem).buffer().stats().evicted;
    d.sheds += cluster.endpoint(mem).buffer().stats().shed;
  }
  return d;
}

TEST(ShardDeterminism, CoordinationEnabledRunsAreShardCountInvariant) {
  RunDigest s1 = run_coordinated_workload(1);
  RunDigest s2 = run_coordinated_workload(2);
  RunDigest s4 = run_coordinated_workload(4);

  // The coordination machinery must actually have run: digests were
  // multicast and budget pressure both evicted and shed.
  std::size_t digest_idx =
      static_cast<std::size_t>(proto::MessageType::kBufferDigest);
  ASSERT_GT(s1.traffic.sends_by_type[digest_idx], 0u);
  ASSERT_GT(s1.evictions + s1.sheds, 0u);

  expect_identical(s1, s2, "coordinated shards=1 vs shards=2");
  expect_identical(s1, s4, "coordinated shards=1 vs shards=4");
  EXPECT_EQ(s1.evictions, s2.evictions);
  EXPECT_EQ(s1.evictions, s4.evictions);
  EXPECT_EQ(s1.sheds, s2.sheds);
  EXPECT_EQ(s1.sheds, s4.sheds);
}

RunDigest run_flow_workload(std::size_t shards) {
  // The churny stream once more, now with windowed send admission: two
  // senders burst past their windows, so frames queue, CreditAcks release
  // them, and digest-fed back-pressure shrinks effective windows. The
  // credit loop orders wire traffic by ack arrival, so it must be as
  // shard-count-invariant as everything upstream of it.
  ClusterConfig cc;
  cc.region_sizes = {6, 5, 4, 5};
  cc.seed = 2029;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  cc.protocol.buffer_budget = buffer::BufferBudget{512, 0};
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(15);
  cc.protocol.flow.enabled = true;
  cc.protocol.flow.window_size = 2;
  cc.protocol.flow.ack_interval = Duration::millis(8);
  Cluster cluster(cc);

  for (int i = 0; i < 4; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i, [&cluster] {
          // Back-to-back bursts from two members of the root region: each
          // instantly outruns its window of 2.
          for (int b = 0; b < 3; ++b) {
            cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x2D));
            cluster.endpoint(1).multicast(std::vector<std::uint8_t>(48, 0x3E));
          }
        });
  }
  cluster.schedule_script(TimePoint::zero() + Duration::millis(70),
                          [&cluster] { cluster.leave(8); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(110),
                          [&cluster] { cluster.crash(12); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  return d;
}

TEST(ShardDeterminism, FlowControlRunsAreShardCountInvariant) {
  RunDigest s1 = run_flow_workload(1);
  RunDigest s2 = run_flow_workload(2);
  RunDigest s4 = run_flow_workload(4);

  // The credit loop must actually have engaged: sends were deferred and
  // CreditAcks flowed on the wire.
  ASSERT_GT(s1.counters.sends_deferred, 0u);
  ASSERT_GT(s1.counters.credit_acks_sent, 0u);
  std::size_t ack_idx = static_cast<std::size_t>(proto::MessageType::kCreditAck);
  ASSERT_GT(s1.traffic.sends_by_type[ack_idx], 0u);

  expect_identical(s1, s2, "flow shards=1 vs shards=2");
  expect_identical(s1, s4, "flow shards=1 vs shards=4");
}

RunDigest run_adaptive_churn_flow_workload(std::size_t shards) {
  // The flow workload again with the PR 7 machinery fully lit: AIMD window
  // sizing, cursor piggybacking on Data/Session frames, and churn in the
  // middle of the bursts — a crash plus a later rejoin, so the churn-safe
  // credit seeding (joiner cursors at the sender's floor, departed cursors
  // dropped at view-change time) and the ack-suppression state machine are
  // all on the deterministic-ordering hook.
  ClusterConfig cc;
  cc.region_sizes = {6, 5, 4, 5};
  cc.seed = 2031;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  cc.protocol.buffer_budget = buffer::BufferBudget{512, 0};
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(15);
  cc.protocol.flow.enabled = true;
  cc.protocol.flow.window_size = 4;
  cc.protocol.flow.ack_interval = Duration::millis(8);
  cc.protocol.flow.adaptive = true;
  cc.protocol.flow.piggyback = true;
  Cluster cluster(cc);

  for (int i = 0; i < 6; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i, [&cluster] {
          for (int b = 0; b < 3; ++b) {
            cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x4F));
            cluster.endpoint(1).multicast(std::vector<std::uint8_t>(48, 0x5A));
          }
        });
  }
  // Mid-burst churn in the senders' own region: member 5 crashes while
  // frames are in flight and rejoins two bursts later with empty receive
  // state; member 12 (another region) crashes for the cross-region angle.
  cluster.schedule_script(TimePoint::zero() + Duration::millis(45),
                          [&cluster] { cluster.crash(5); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(85),
                          [&cluster] { cluster.rejoin(5); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(110),
                          [&cluster] { cluster.crash(12); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  return d;
}

TEST(ShardDeterminism, AdaptiveChurnFlowRunsAreShardCountInvariant) {
  RunDigest s1 = run_adaptive_churn_flow_workload(1);
  RunDigest s2 = run_adaptive_churn_flow_workload(2);
  RunDigest s4 = run_adaptive_churn_flow_workload(4);

  // The PR 7 machinery must actually have engaged: sends deferred by the
  // AIMD window, and the piggybacked cursors suppressed standalone acks.
  ASSERT_GT(s1.counters.sends_deferred, 0u);
  ASSERT_GT(s1.counters.credit_acks_suppressed, 0u);

  expect_identical(s1, s2, "adaptive churn flow shards=1 vs shards=2");
  expect_identical(s1, s4, "adaptive churn flow shards=1 vs shards=4");
}

RunDigest run_partition_heal_workload(std::size_t shards) {
  // The fault-injection layer on the deterministic-ordering hook: per-member
  // link-loss overrides from t=0, then a mid-run partition that severs two
  // whole regions from the other two (cutting cross-lane traffic at the
  // barrier-exchange seam, the spot most exposed to shard count), healed
  // while the stream is still running. The severed-packet accounting, the
  // partition-change credit releases and the post-heal re-seeding must all
  // be byte-identical at every shard count.
  ClusterConfig cc;
  cc.region_sizes = {6, 5, 4, 5};
  cc.seed = 2033;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  cc.protocol.buffer_budget = buffer::BufferBudget{512, 0};
  cc.protocol.buffer_coordination.enabled = true;
  cc.protocol.buffer_coordination.digest_interval = Duration::millis(15);
  cc.protocol.flow.enabled = true;
  cc.protocol.flow.window_size = 4;
  cc.protocol.flow.ack_interval = Duration::millis(8);
  Cluster cluster(cc);

  // Lossy edges into one member of region 0 and one of region 2: the
  // link-table clones must draw identically in every lane arrangement.
  cluster.set_lossy_members({4, 13}, 0.3);

  for (int i = 0; i < 6; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i, [&cluster] {
          for (int b = 0; b < 3; ++b) {
            cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x6B));
            cluster.endpoint(1).multicast(std::vector<std::uint8_t>(48, 0x7C));
          }
        });
  }
  // Regions {2, 3} lose contact with regions {0, 1} mid-stream; the wall
  // comes down 75 ms later with bursts still arriving. A crash during the
  // partition adds the churn-during-fault angle.
  cluster.schedule_script(TimePoint::zero() + Duration::millis(45),
                          [&cluster] {
                            cluster.partition_regions({{0, 1}, {2, 3}});
                          });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(70),
                          [&cluster] { cluster.crash(12); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(120),
                          [&cluster] { cluster.heal(); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  return d;
}

TEST(ShardDeterminism, PartitionHealRunsAreShardCountInvariant) {
  RunDigest s1 = run_partition_heal_workload(1);
  RunDigest s2 = run_partition_heal_workload(2);
  RunDigest s4 = run_partition_heal_workload(4);

  // The fault layer must actually have engaged: packets died at the
  // partition wall, and the post-heal stream still recovered losses.
  ASSERT_GT(s1.traffic.severed, 0u);
  ASSERT_GT(s1.counters.recoveries, 0u);
  ASSERT_GT(s1.traffic.cross_lane_sends, 0u);

  expect_identical(s1, s2, "partition shards=1 vs shards=2");
  expect_identical(s1, s4, "partition shards=1 vs shards=4");
}

RunDigest run_hierarchy_workload(std::size_t shards,
                                 std::size_t sub_shard_members) {
  // The hierarchical repair subsystem on the deterministic-ordering hook:
  // representatives funnel NAKs and escalate level by level while loss,
  // jitter and churn run, and regions are optionally sub-sharded into
  // chunk lanes (the scale refactor's lane layout). Escalation targeting is
  // view-derived, not RNG-drawn, so every digest must be byte-identical at
  // every worker count.
  ClusterConfig cc;
  cc.region_sizes = {6, 6, 6, 6};
  cc.parents = {0, 0, 1, 2};  // a 3-deep chain hanging off the root
  cc.seed = 2035;
  cc.data_loss = 0.20;
  cc.control_loss = 0.02;
  cc.jitter = 0.15;
  cc.codec_roundtrip = true;
  cc.shards = shards;
  cc.sub_shard_members = sub_shard_members;
  cc.protocol.hierarchy.enabled = true;
  Cluster cluster(cc);

  for (int i = 0; i < 8; ++i) {
    cluster.schedule_script(
        TimePoint::zero() + Duration::millis(20) * i,
        [&cluster] {
          cluster.endpoint(0).multicast(std::vector<std::uint8_t>(48, 0x2D));
        });
  }
  cluster.schedule_script(TimePoint::zero() + Duration::millis(70),
                          [&cluster] { cluster.leave(8); });
  cluster.schedule_script(TimePoint::zero() + Duration::millis(110),
                          [&cluster] { cluster.crash(14); });

  cluster.run_for(Duration::seconds(1));
  cluster.run_until_quiet(Duration::seconds(2));

  RunDigest d;
  const RecordingSink& m = cluster.metrics();
  d.counters = m.counters();
  d.deliveries = m.deliveries();
  d.stores = m.stores();
  d.discards = m.discards();
  d.promotions = m.promotions();
  d.recovery_latencies = m.recovery_latencies();
  d.traffic = cluster.network().stats();
  d.events_fired = cluster.events_fired();
  d.final_now = cluster.now();
  d.total_buffered = cluster.total_buffered();
  d.lanes = cluster.lane_count();
  return d;
}

TEST(ShardDeterminism, HierarchyRunsAreShardCountInvariant) {
  RunDigest s1 = run_hierarchy_workload(1, 0);
  RunDigest s2 = run_hierarchy_workload(2, 0);
  RunDigest s4 = run_hierarchy_workload(4, 0);

  // The repair tree must actually have engaged: escalations on the wire and
  // recoveries completing through them.
  std::size_t esc_idx = static_cast<std::size_t>(proto::MessageType::kEscalate);
  ASSERT_GT(s1.traffic.sends_by_type[esc_idx], 0u);
  ASSERT_GT(s1.counters.recoveries, 0u);

  expect_identical(s1, s2, "hierarchy shards=1 vs shards=2");
  expect_identical(s1, s4, "hierarchy shards=1 vs shards=4");
}

TEST(ShardDeterminism, SubShardedHierarchyRunsAreShardCountInvariant) {
  // Sub-shard every 6-member region into 3-member chunk lanes (8 lanes for
  // 4 regions): the chunked lane layout changes the lookahead and the lane
  // RNG streams, so it is its own baseline — but worker count must still
  // never matter, including workers straddling chunks of one region.
  RunDigest s1 = run_hierarchy_workload(1, 3);
  RunDigest s2 = run_hierarchy_workload(2, 3);
  RunDigest s4 = run_hierarchy_workload(4, 3);

  ASSERT_EQ(s1.lanes, 8u);
  std::size_t esc_idx = static_cast<std::size_t>(proto::MessageType::kEscalate);
  ASSERT_GT(s1.traffic.sends_by_type[esc_idx], 0u);

  expect_identical(s1, s2, "sub-sharded shards=1 vs shards=2");
  expect_identical(s1, s4, "sub-sharded shards=1 vs shards=4");
}

TEST(ShardDeterminism, SoleCopyProtectedWhenRedundantVictimAvailable) {
  // Regression for the coordination cost model, at the store level: under
  // pressure, a digest-advertised (redundant) entry is evicted even though
  // the uncoordinated order (LRU) would have picked the sole-copy entry.
  using rrmp::testing::FakePolicyEnv;
  using rrmp::testing::make_data;
  FakePolicyEnv env(/*region_size=*/4, /*self=*/0, /*seed=*/5);
  buffer::CoordinationParams coord;
  coord.enabled = true;
  coord.shed_sole_copies = false;  // isolate eviction ordering from the shed
  auto store = buffer::make_store(buffer::BufferEverythingParams{},
                                  buffer::BufferBudget{0, 2}, coord);
  store->bind(&env);
  env.attach_store(store.get());

  store->store(make_data(1, 1));  // sole copy, least recently active
  env.advance(Duration::millis(1));
  store->store(make_data(1, 2));  // fresher, but advertised by neighbor 3
  store->digests().update(3, 50, {{1, 2, 1}});
  ASSERT_EQ(store->known_replicas(MessageId{1, 2}), 2u);

  store->store(make_data(1, 3));  // pressure: must evict the redundant {1,2}
  EXPECT_TRUE(store->has(MessageId{1, 1}));   // sole copy survives
  EXPECT_FALSE(store->has(MessageId{1, 2}));  // redundant copy went
  EXPECT_TRUE(store->has(MessageId{1, 3}));

  // The identical sequence uncoordinated evicts the LRU sole copy instead —
  // the behaviour the cost model exists to prevent.
  FakePolicyEnv env2(/*region_size=*/4, /*self=*/0, /*seed=*/5);
  auto plain = buffer::make_store(buffer::BufferEverythingParams{},
                                  buffer::BufferBudget{0, 2});
  plain->bind(&env2);
  env2.attach_store(plain.get());
  plain->store(make_data(1, 1));
  env2.advance(Duration::millis(1));
  plain->store(make_data(1, 2));
  plain->digests().update(3, 50, {{1, 2, 1}});  // known but ignored: disabled
  plain->store(make_data(1, 3));
  EXPECT_FALSE(plain->has(MessageId{1, 1}));
  EXPECT_TRUE(plain->has(MessageId{1, 2}));
}

TEST(ShardDeterminism, RepeatedRunIsReproducible) {
  // Same shard count twice: guards against nondeterminism that has nothing
  // to do with threading (iteration order, uninitialized state).
  RunDigest a = run_workload(2);
  RunDigest b = run_workload(2);
  expect_identical(a, b, "shards=2 run A vs run B");
}

TEST(ShardDeterminism, MergedEventStreamsAreTimeOrdered) {
  RunDigest d = run_workload(4);
  for (std::size_t i = 1; i < d.deliveries.size(); ++i) {
    ASSERT_LE(d.deliveries[i - 1].at, d.deliveries[i].at) << "index " << i;
  }
  for (std::size_t i = 1; i < d.stores.size(); ++i) {
    ASSERT_LE(d.stores[i - 1].at, d.stores[i].at) << "index " << i;
  }
}

TEST(ShardDeterminism, ShardCountClampsToLanes) {
  ClusterConfig cc;
  cc.region_sizes = {4, 4};
  cc.shards = 64;  // far more than the 2 lanes: clamped, not oversubscribed
  Cluster cluster(cc);
  EXPECT_EQ(cluster.lane_count(), 2u);
  EXPECT_LE(cluster.shard_count(), 2u);
  std::vector<MemberId> holders = {0};
  cluster.inject(0, 1, holders);
  cluster.run_until_quiet(Duration::seconds(2));
  EXPECT_TRUE(cluster.all_received(MessageId{0, 1}));
}

TEST(ShardDeterminism, QuietRunDeliversOutboxOnlyCrossRegionPacket) {
  // Regression: a top-level injection can make an endpoint emit a
  // cross-region packet while every lane queue is empty. The packet then
  // lives only in the sender lane's outbox; run_until_quiet must exchange
  // it into the destination queue rather than mistake the cluster for
  // quiescent and strand it.
  ClusterConfig cc;
  cc.region_sizes = {3, 1};
  cc.seed = 11;
  Cluster cluster(cc);
  std::vector<MemberId> region0 = cluster.region_members(0);
  MemberId requester = cluster.region_members(1)[0];
  MessageId id = cluster.inject_data_to(region0[0], 1, region0);
  for (MemberId m : region0) cluster.force_long_term(m, id);
  cluster.run_until_quiet(Duration::seconds(5));  // fully drained

  // The target buffers the message, so the repair goes out synchronously —
  // straight into the cross-lane outbox, with no timer left anywhere.
  cluster.inject_remote_request(region0[1], id, requester);
  cluster.run_until_quiet(Duration::seconds(5));
  EXPECT_TRUE(cluster.endpoint(requester).has_received(id));
  net::TrafficStats ts = cluster.network().stats();
  EXPECT_EQ(ts.cross_lane_sends, ts.cross_lane_deliveries);
  EXPECT_TRUE(cluster.network().outboxes_empty());
}

TEST(ShardDeterminism, SingleRegionCollapsesToOneLane) {
  ClusterConfig cc;
  cc.region_sizes = {8};
  cc.shards = 4;
  Cluster cluster(cc);
  EXPECT_EQ(cluster.lane_count(), 1u);
  EXPECT_EQ(cluster.shard_count(), 1u);  // nothing to parallelize
}

}  // namespace
}  // namespace rrmp::harness

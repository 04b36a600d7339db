// Tests for the harness itself: Cluster scenario controls, SimHost view
// filtering, run_until_quiet semantics, experiment drivers' basic sanity.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/experiments.h"

namespace rrmp::harness {
namespace {

TEST(ClusterTest, InjectDeliversDataToHoldersAndSessionToOthers) {
  ClusterConfig cc;
  cc.region_sizes = {6};
  cc.seed = 1;
  Cluster cluster(cc);
  std::vector<MemberId> holders = {0, 2};
  MessageId id = cluster.inject(0, 1, holders);
  EXPECT_TRUE(cluster.endpoint(0).has_received(id));
  EXPECT_TRUE(cluster.endpoint(2).has_received(id));
  EXPECT_FALSE(cluster.endpoint(1).has_received(id));
  // Non-holders detected the loss immediately.
  EXPECT_EQ(cluster.endpoint(1).active_recoveries(), 1u);
  EXPECT_EQ(cluster.endpoint(3).active_recoveries(), 1u);
}

TEST(ClusterTest, InjectDataToNotifiesNobodyElse) {
  ClusterConfig cc;
  cc.region_sizes = {6};
  cc.seed = 2;
  Cluster cluster(cc);
  std::vector<MemberId> holders = {0};
  cluster.inject_data_to(0, 1, holders);
  for (MemberId m = 1; m < 6; ++m) {
    EXPECT_EQ(cluster.endpoint(m).active_recoveries(), 0u);
  }
}

TEST(ClusterTest, ForceLongTermAndDiscardManipulateState) {
  ClusterConfig cc;
  cc.region_sizes = {4};
  cc.seed = 3;
  Cluster cluster(cc);
  MessageId id = cluster.inject_data_to(0, 1, cluster.region_members(0));
  cluster.force_long_term(1, id);
  EXPECT_TRUE(cluster.endpoint(1).buffer().is_long_term(id));
  cluster.force_discard(2, id);
  EXPECT_FALSE(cluster.endpoint(2).buffer().has(id));
  EXPECT_THROW(cluster.force_long_term(2, id), std::logic_error);
}

TEST(ClusterTest, RunUntilQuietStopsWhenIdle) {
  ClusterConfig cc;
  cc.region_sizes = {8};
  cc.seed = 4;
  Cluster cluster(cc);
  cluster.inject(0, 1, cluster.region_members(0));  // everyone has it
  cluster.run_until_quiet(Duration::seconds(10));
  // Far less than the cap: the event queue drained after idle decisions.
  EXPECT_LT(cluster.now(), TimePoint::zero() + Duration::seconds(1));
}

TEST(ClusterTest, CrashedMemberExcludedFromQueries) {
  ClusterConfig cc;
  cc.region_sizes = {5};
  cc.seed = 5;
  Cluster cluster(cc);
  MessageId id = cluster.inject_data_to(0, 1, cluster.region_members(0));
  EXPECT_EQ(cluster.count_received(id), 5u);
  cluster.crash(4);
  EXPECT_EQ(cluster.count_received(id), 4u);
  EXPECT_TRUE(cluster.all_received(id));  // only alive members count
}

TEST(ClusterTest, SimHostViewsFollowDirectory) {
  ClusterConfig cc;
  cc.region_sizes = {4, 3};
  cc.seed = 6;
  Cluster cluster(cc);
  EXPECT_EQ(cluster.host(0).local_view().size(), 4u);
  EXPECT_TRUE(cluster.host(0).parent_view().empty());  // root
  EXPECT_EQ(cluster.host(5).local_view().size(), 3u);
  EXPECT_EQ(cluster.host(5).parent_view().size(), 4u);
  cluster.crash(1);
  EXPECT_EQ(cluster.host(0).local_view().size(), 3u);
  EXPECT_EQ(cluster.host(5).parent_view().size(), 3u);
}

TEST(ClusterTest, RttEstimateMatchesTopology) {
  ClusterConfig cc;
  cc.region_sizes = {3, 2};
  cc.intra_rtt = Duration::millis(10);
  cc.inter_one_way = Duration::millis(50);
  cc.seed = 9;
  Cluster cluster(cc);
  EXPECT_EQ(cluster.host(0).rtt_estimate(1), Duration::millis(10));
  EXPECT_EQ(cluster.host(0).rtt_estimate(4), Duration::millis(100));
}

// ------------------------------------------------------ experiment drivers ----

TEST(ExperimentsTest, Fig6PointHasSamplesAndSaneRange) {
  Fig6Result r = run_fig6_point(4, 30, 5, 11);
  EXPECT_EQ(r.initial_holders, 4u);
  EXPECT_EQ(r.samples, 20u);  // 4 holders x 5 trials
  EXPECT_GE(r.mean_buffer_ms, 40.0);   // bounded below by T
  EXPECT_LE(r.mean_buffer_ms, 400.0);  // and well bounded above
}

TEST(ExperimentsTest, Fig7SeriesShapes) {
  Fig7Series s = run_fig7(40, 12, Duration::millis(140), Duration::millis(10));
  ASSERT_EQ(s.t_ms.size(), s.received.size());
  ASSERT_EQ(s.t_ms.size(), s.buffered.size());
  EXPECT_EQ(s.received.front(), 1u);  // the single initial holder
  EXPECT_EQ(s.received.back(), 40u);  // everyone by the end
  // Received counts are monotone.
  for (std::size_t i = 1; i < s.received.size(); ++i) {
    EXPECT_GE(s.received[i], s.received[i - 1]);
  }
}

TEST(ExperimentsTest, SearchZeroWhenRequestLandsOnBufferer) {
  // With every member a bufferer, search time must always be exactly 0.
  SearchResult r = run_search_once(10, 10, 13);
  EXPECT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.search_ms, 0.0);
}

TEST(ExperimentsTest, LongTermDistributionSumsToOne) {
  auto d = simulate_longterm_distribution(100, 6.0, 20000, 14, 30);
  double total = 0;
  for (double p : d.pmf) total += p;
  EXPECT_NEAR(total, 1.0, 0.01);
  EXPECT_NEAR(d.mean, 6.0, 0.15);
}

TEST(ExperimentsTest, StreamScenarioProducesTraffic) {
  StreamScenario sc;
  sc.region_size = 20;
  sc.messages = 10;
  sc.data_loss = 0.2;
  sc.seed = 15;
  StreamOutcome o = run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc);
  EXPECT_EQ(o.goodput, 1.0);
  EXPECT_GT(o.peak_buffer_per_member, 0.0);
  EXPECT_GT(o.control_msgs, 0u);   // session messages at minimum
  EXPECT_GT(o.repair_msgs, 0u);    // 20% loss needed repairs
}

TEST(ExperimentsTest, StarvedBudgetForcesEvictionsAndHurtsRecovery) {
  StreamScenario sc;
  sc.region_size = 20;
  sc.messages = 20;
  sc.data_loss = 0.2;
  sc.seed = 15;
  StreamOutcome unlimited =
      run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc);
  EXPECT_EQ(unlimited.evictions, 0u);
  EXPECT_EQ(unlimited.rejected, 0u);
  // Budget of ~1 wire frame (a 256 B payload encodes to 271 B): nearly
  // every admission evicts the previous message, so repair requests mostly
  // find nothing.
  sc.budget.max_bytes = 300;
  StreamOutcome starved =
      run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc);
  EXPECT_GT(starved.evictions, 0u);
  EXPECT_LT(starved.recovery_success, unlimited.recovery_success);
  EXPECT_LT(starved.goodput, unlimited.goodput);
}

TEST(ExperimentsTest, CoordinationImprovesStarvedRecovery) {
  // The tentpole claim at unit scale: same starved budget, coordination on
  // vs off — the cooperative run sheds sole copies instead of losing them
  // and recovers at least as many losses, strictly more here.
  StreamScenario sc;
  sc.region_size = 20;
  sc.messages = 20;
  sc.data_loss = 0.2;
  sc.seed = 15;
  sc.budget.max_bytes = 600;
  StreamOutcome unc = run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc);
  sc.coordination.enabled = true;
  StreamOutcome coord = run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc);
  ASSERT_LT(unc.recovery_success, 1.0);  // pressure is real
  EXPECT_EQ(unc.sheds, 0u);
  EXPECT_EQ(unc.digest_msgs, 0u);
  EXPECT_GT(coord.recovery_success, unc.recovery_success);
  EXPECT_GT(coord.sheds, 0u);
  EXPECT_GT(coord.digest_msgs, 0u);
}

TEST(ExperimentsTest, FaultCellScriptsPinTheSweepTimelines) {
  // The fault sweep's shape: 24 members, 4 senders, 30 sends 2 ms apart, so
  // the burst is 60 ms. Victims sit at the tail, clear of senders 0-3.
  StreamScenario sc;
  sc.region_size = 24;
  sc.senders = 4;
  sc.messages = 30;
  sc.send_interval = Duration::millis(2);
  const TimePoint t0 = TimePoint::zero();
  auto members = [](MemberId first, MemberId last) {
    std::vector<MemberId> out;
    for (MemberId m = first; m <= last; ++m) out.push_back(m);
    return out;
  };
  FaultScript partition, lossy_edge, churn_storm, digest_loss;
  partition.partition(t0 + Duration::millis(20), {members(18, 23)})
      .heal(t0 + Duration::millis(60));
  lossy_edge.link_loss(t0, members(22, 23), 0.10);
  churn_storm.crash(t0 + Duration::millis(20), members(14, 23))
      .rejoin(t0 + Duration::millis(40), members(14, 23));
  digest_loss.control_loss(t0 + Duration::millis(20), 0.6)
      .control_loss(t0 + Duration::millis(40), 0.0);

  EXPECT_TRUE(fault_cell_script(FaultCell::kClean, sc).empty());
  EXPECT_EQ(fault_cell_script(FaultCell::kPartition, sc).events(),
            partition.events());
  EXPECT_EQ(fault_cell_script(FaultCell::kLossyEdge, sc).events(),
            lossy_edge.events());
  EXPECT_EQ(fault_cell_script(FaultCell::kChurnStorm, sc).events(),
            churn_storm.events());
  EXPECT_EQ(fault_cell_script(FaultCell::kDigestLoss, sc).events(),
            digest_loss.events());
}

TEST(ExperimentsTest, WindowedFlashCrowdStaysLiveUnderEveryFaultCell) {
  // A small windowed flash crowd: 4 of 12 members stream into 4 KiB
  // budgets, so the W = 4 window binds and sends wait for credit.
  StreamScenario sc;
  sc.region_size = 12;
  sc.senders = 4;
  sc.messages = 10;
  sc.send_interval = Duration::millis(2);
  sc.data_loss = 0.05;
  sc.payload_bytes = 512;
  sc.drain = Duration::millis(1500);
  sc.seed = 0xFA'0001;
  sc.budget.max_bytes = 4096;
  sc.coordination.enabled = true;
  sc.coordination.digest_interval = Duration::millis(10);
  sc.flow.enabled = true;
  sc.flow.window_size = 4;
  sc.flow.ack_interval = Duration::millis(5);

  StreamOutcome plain = run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc);
  EXPECT_EQ(plain.goodput, 1.0);
  EXPECT_EQ(plain.senders_completed, 4u);
  EXPECT_GT(plain.deferred, 0u);

  // The fault sweep's liveness verdict: no cell wedges a sender. Faults
  // only take away, so the clean cell's goodput bounds every other cell's.
  std::vector<StreamOutcome> cells;
  for (FaultCell cell :
       {FaultCell::kClean, FaultCell::kPartition, FaultCell::kLossyEdge,
        FaultCell::kChurnStorm, FaultCell::kDigestLoss}) {
    cells.push_back(run_stream_scenario(buffer::PolicyKind::kTwoPhase, sc,
                                        fault_cell_script(cell, sc)));
    EXPECT_EQ(cells.back().senders_completed, 4u) << fault_cell_name(cell);
  }
  for (const StreamOutcome& o : cells) {
    EXPECT_LE(o.goodput, cells.front().goodput);
  }
}

TEST(ExperimentsTest, NoRequestProbabilityMatchesFormula) {
  double mc = simulate_no_request_probability(100, 0.5, 50000, 16);
  EXPECT_NEAR(mc, 0.605, 0.02);  // (1-1/99)^50
}

}  // namespace
}  // namespace rrmp::harness

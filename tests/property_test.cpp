// Property-based tests: parameterized sweeps over seeds, region sizes, loss
// rates and protocol parameters, checking the paper's invariants rather
// than point values.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "analysis/analytic.h"
#include "analysis/stats.h"
#include "harness/cluster.h"
#include "harness/experiments.h"

namespace rrmp::harness {
namespace {

// ---------------------------------------------------- reliability sweep ----

struct ReliabilityParam {
  std::size_t region_size;
  double data_loss;
  std::uint64_t seed;
};

class ReliabilitySweep : public ::testing::TestWithParam<ReliabilityParam> {};

TEST_P(ReliabilitySweep, EveryMessageReachesEveryMember) {
  ReliabilityParam p = GetParam();
  ClusterConfig cc;
  cc.region_sizes = {p.region_size};
  cc.data_loss = p.data_loss;
  cc.seed = p.seed;
  // Generous C: the reliability guarantee is probabilistic in C (§5).
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 8.0;
  Cluster cluster(cc);
  std::vector<MessageId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(cluster.endpoint(0).multicast({static_cast<std::uint8_t>(i)}));
  }
  cluster.run_for(Duration::seconds(3));
  for (const MessageId& id : ids) {
    // The paper's guarantee is probabilistic (§5). Liveness invariant: a
    // member that *detected* the loss (learned the sequence exists) must
    // have recovered it by now whenever at least one member still buffers a
    // copy. Members that never received any data/session message at this
    // loss rate are oblivious, not stalled — they cannot request what they
    // do not know exists.
    if (!cluster.all_received(id) && cluster.count_buffered(id) > 0) {
      for (MemberId m = 0; m < cluster.size(); ++m) {
        if (cluster.endpoint(m).has_received(id)) continue;
        auto missing = cluster.endpoint(m).missing_from(id.source);
        bool detected = std::find(missing.begin(), missing.end(), id.seq) !=
                        missing.end();
        EXPECT_FALSE(detected)
            << "member " << m << " detected the loss, bufferers exist, but "
            << "recovery stalled; seed=" << p.seed;
      }
    }
    // At moderate loss the violation probability is negligible: require
    // full delivery outright.
    if (p.data_loss <= 0.7) {
      EXPECT_TRUE(cluster.all_received(id))
          << "n=" << p.region_size << " loss=" << p.data_loss
          << " seed=" << p.seed << " seq=" << id.seq;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesLossesSeeds, ReliabilitySweep,
    ::testing::Values(
        ReliabilityParam{10, 0.1, 1}, ReliabilityParam{10, 0.5, 2},
        ReliabilityParam{10, 0.9, 3}, ReliabilityParam{40, 0.1, 4},
        ReliabilityParam{40, 0.5, 5}, ReliabilityParam{40, 0.9, 6},
        ReliabilityParam{80, 0.3, 7}, ReliabilityParam{80, 0.7, 8},
        ReliabilityParam{25, 0.99, 9}, ReliabilityParam{60, 0.5, 10}));

// §5's guarantee is probabilistic, so one seed per cell cannot state it:
// count, over many seeds of the sweep's hardest full-delivery cell, the
// runs that leave some message undelivered. The budget also bounds how far
// an idle sender may stretch its Session heartbeat, since Sessions are how
// a member that lost every copy learns a message exists.
TEST(DeliveryBudget, HighLossRunsRarelyLeaveAMessageUndelivered) {
  constexpr std::uint64_t kSeeds = 200;
  constexpr std::size_t kMaxUndeliveredRuns = 5;
  std::vector<std::uint64_t> undelivered;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ClusterConfig cc;
    cc.region_sizes = {80};
    cc.data_loss = 0.7;
    cc.seed = seed;
    std::get<buffer::TwoPhaseParams>(cc.policy).C = 8.0;
    Cluster cluster(cc);
    std::vector<MessageId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(
          cluster.endpoint(0).multicast({static_cast<std::uint8_t>(i)}));
    }
    cluster.run_for(Duration::seconds(3));
    if (!std::all_of(ids.begin(), ids.end(), [&](const MessageId& id) {
          return cluster.all_received(id);
        })) {
      undelivered.push_back(seed);
    }
  }
  EXPECT_LE(undelivered.size(), kMaxUndeliveredRuns)
      << "undelivered seeds: " << ::testing::PrintToString(undelivered);
}

// --------------------------------------------- hierarchical reliability ----

struct HierarchyParam {
  std::vector<std::size_t> regions;
  double data_loss;
  std::uint64_t seed;
};

class HierarchySweep : public ::testing::TestWithParam<HierarchyParam> {};

TEST_P(HierarchySweep, CrossRegionRecoveryConverges) {
  HierarchyParam p = GetParam();
  ClusterConfig cc;
  cc.region_sizes = p.regions;
  cc.data_loss = p.data_loss;
  cc.seed = p.seed;
  std::get<buffer::TwoPhaseParams>(cc.policy).C = 8.0;
  cc.protocol.lambda = 2.0;
  Cluster cluster(cc);
  std::vector<MessageId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(cluster.endpoint(0).multicast({static_cast<std::uint8_t>(i)}));
  }
  cluster.run_for(Duration::seconds(4));
  for (const MessageId& id : ids) {
    EXPECT_TRUE(cluster.all_received(id)) << "seed=" << p.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchySweep,
    ::testing::Values(
        HierarchyParam{{10, 10}, 0.4, 11}, HierarchyParam{{10, 10, 10}, 0.4, 12},
        HierarchyParam{{20, 10, 5}, 0.6, 13}, HierarchyParam{{5, 20}, 0.5, 14},
        HierarchyParam{{15, 15, 15}, 0.3, 15}));

// A chain hierarchy (region 2's parent is region 1) recovers end-to-end.
TEST(HierarchyChain, GrandchildRecoversThroughChain) {
  ClusterConfig cc;
  cc.region_sizes = {8, 8, 8};
  cc.parents = {0, 0, 1};  // 0 <- 1 <- 2
  cc.seed = 99;
  cc.protocol.lambda = 3.0;
  Cluster cluster(cc);
  std::vector<MemberId> r0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(r0[0], 1, r0);
  cluster.inject_session_to(r0[0], 1, cluster.region_members(1));
  cluster.inject_session_to(r0[0], 1, cluster.region_members(2));
  cluster.run_until_quiet(Duration::seconds(5));
  EXPECT_TRUE(cluster.all_received(id));
}

// ------------------------------------------------------- Poisson property ----

class PoissonSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSweep, LongTermBuffererCountMatchesPoisson) {
  double C = GetParam();
  ClusterConfig cc;
  cc.region_sizes = {50};
  cc.seed = static_cast<std::uint64_t>(C * 1000) + 17;
  std::get<buffer::TwoPhaseParams>(cc.policy).C = C;
  Cluster cluster(cc);
  std::vector<MemberId> all = cluster.region_members(0);
  const int messages = 60;
  for (std::uint64_t s = 1; s <= messages; ++s) {
    cluster.inject_data_to(0, s, all);
  }
  cluster.run_for(Duration::millis(200));  // all idle decisions done
  std::vector<double> counts;
  for (std::uint64_t s = 1; s <= messages; ++s) {
    counts.push_back(
        static_cast<double>(cluster.count_long_term(MessageId{0, s})));
  }
  double mean = analysis::mean(counts);
  double sd = analysis::stddev(counts);
  // Binomial(50, C/50): mean C, variance C(1 - C/50).
  EXPECT_NEAR(mean, C, 3.5 * std::sqrt(C / messages) + 0.5);
  double expected_sd = std::sqrt(C * (1.0 - C / 50.0));
  EXPECT_NEAR(sd, expected_sd, expected_sd * 0.6 + 0.3);
}

INSTANTIATE_TEST_SUITE_P(CValues, PoissonSweep,
                         ::testing::Values(2.0, 4.0, 6.0, 8.0));

// ------------------------------------------------------------ determinism ----

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

RecordingSink::Counters run_once(std::uint64_t seed, bool codec_roundtrip) {
  ClusterConfig cc;
  cc.region_sizes = {20, 10};
  cc.data_loss = 0.4;
  cc.seed = seed;
  cc.codec_roundtrip = codec_roundtrip;
  Cluster cluster(cc);
  for (int i = 0; i < 3; ++i) {
    cluster.endpoint(0).multicast({static_cast<std::uint8_t>(i)});
  }
  cluster.run_for(Duration::seconds(2));
  return cluster.metrics().counters();
}

TEST_P(DeterminismSweep, SameSeedSameExecution) {
  std::uint64_t seed = GetParam();
  EXPECT_EQ(run_once(seed, false), run_once(seed, false));
}

TEST_P(DeterminismSweep, WireCodecDoesNotChangeBehavior) {
  std::uint64_t seed = GetParam();
  // Encoding+decoding every in-flight message must be a pure identity.
  EXPECT_EQ(run_once(seed, false), run_once(seed, true));
}

TEST_P(DeterminismSweep, DifferentSeedsDiverge) {
  std::uint64_t seed = GetParam();
  RecordingSink::Counters a = run_once(seed, false);
  RecordingSink::Counters b = run_once(seed + 1000003, false);
  // Loss patterns differ, so at least the delivered/request mix must.
  EXPECT_FALSE(a.local_requests_sent == b.local_requests_sent &&
               a.delivered == b.delivered && a.repairs_sent == b.repairs_sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(1u, 7u, 42u, 12345u));

// ---------------------------------------------------------- lambda sweep ----

class LambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(LambdaSweep, FirstRoundRemoteRequestsMatchLambda) {
  double lambda = GetParam();
  LambdaResult r = run_lambda_experiment(lambda, 50, 20, /*trials=*/40,
                                         static_cast<std::uint64_t>(lambda * 77) + 3);
  EXPECT_NEAR(r.mean_first_round, lambda, 0.35 * lambda + 0.3);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, LambdaSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 3.0));

// ----------------------------------------------------- search properties ----

TEST(SearchProperty, TimeFallsWithBuffererCount) {
  double k1 = mean_search_ms(80, 1, 40, 21);
  double k4 = mean_search_ms(80, 4, 40, 22);
  double k10 = mean_search_ms(80, 10, 40, 23);
  EXPECT_GT(k1, k4);
  EXPECT_GT(k4, k10);
}

TEST(SearchProperty, TimeGrowsSublinearlyWithRegion) {
  double n100 = mean_search_ms(100, 10, 40, 24);
  double n400 = mean_search_ms(400, 10, 40, 25);
  EXPECT_GT(n400, n100);
  EXPECT_LT(n400, n100 * 4.0);  // far below linear scaling
}

TEST(SearchProperty, SearchAlwaysFindsTheLastBufferer) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    SearchResult r = run_search_once(50, 1, seed);
    EXPECT_TRUE(r.found) << "seed " << seed;
  }
}

// ------------------------------------------------- buffering-time property ----

TEST(BufferingProperty, TimeFallsWithInitialCoverage) {
  Fig6Result sparse = run_fig6_point(1, 60, 10, 31);
  Fig6Result dense = run_fig6_point(32, 60, 10, 32);
  EXPECT_GT(sparse.mean_buffer_ms, dense.mean_buffer_ms);
  // Both bounded below by the idle threshold.
  EXPECT_GE(dense.mean_buffer_ms, 40.0);
}

TEST(BufferingProperty, IdleThresholdScalesTheFloor) {
  ExperimentDefaults fast;
  fast.idle_threshold = Duration::millis(20);
  ExperimentDefaults slow;
  slow.idle_threshold = Duration::millis(80);
  Fig6Result f = run_fig6_point(16, 40, 8, 33, fast);
  Fig6Result s = run_fig6_point(16, 40, 8, 33, slow);
  EXPECT_GE(f.mean_buffer_ms, 20.0);
  EXPECT_GE(s.mean_buffer_ms, 80.0);
  EXPECT_GT(s.mean_buffer_ms, f.mean_buffer_ms + 30.0);
}

// --------------------------------------------------- policy sweep (stream) ----

class PolicySweep : public ::testing::TestWithParam<buffer::PolicyKind> {};

TEST_P(PolicySweep, LossyStreamFullyDelivered) {
  StreamScenario sc;
  sc.region_size = 30;
  sc.messages = 30;
  sc.data_loss = 0.1;
  sc.seed = 55;
  StreamOutcome o = run_stream_scenario(GetParam(), sc);
  EXPECT_EQ(o.goodput, 1.0) << o.policy;
  EXPECT_EQ(o.unrecovered, 0u) << o.policy;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(buffer::PolicyKind::kTwoPhase,
                      buffer::PolicyKind::kFixedTime,
                      buffer::PolicyKind::kBufferEverything,
                      buffer::PolicyKind::kHashBased,
                      buffer::PolicyKind::kStability),
    [](const ::testing::TestParamInfo<buffer::PolicyKind>& info) {
      std::string name = buffer::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ----------------------------------------------- no-bufferer probability ----

TEST(NoBuffererProperty, MatchesExponentialAcrossC) {
  for (double C : {1.0, 2.0, 4.0}) {
    auto dist = simulate_longterm_distribution(100, C, 400000,
                                               static_cast<std::uint64_t>(C) + 61,
                                               2);
    double expected = analysis::prob_no_bufferer(C);
    // Binomial p_none is slightly below the Poisson limit; accept 15%.
    EXPECT_NEAR(dist.p_none, expected, expected * 0.15 + 0.002) << "C=" << C;
  }
}

// ------------------------------------------------ churn/handoff property ----

TEST(ChurnProperty, HandoffChainSurvivesRepeatedLeaves) {
  // Leave bufferers one wave after another; handoff must keep the message
  // recoverable through multiple generations of inheritors.
  ClusterConfig cc;
  cc.region_sizes = {30, 1};
  cc.seed = 77;
  Cluster cluster(cc);
  std::vector<MemberId> r0 = cluster.region_members(0);
  MessageId id = cluster.inject_data_to(r0[0], 1, r0);
  cluster.run_for(Duration::millis(100));  // idle decisions done

  for (int wave = 0; wave < 3; ++wave) {
    std::vector<MemberId> bufferers;
    for (MemberId m : r0) {
      if (cluster.directory().alive(m) &&
          cluster.endpoint(m).buffer().is_long_term(id)) {
        bufferers.push_back(m);
      }
    }
    ASSERT_FALSE(bufferers.empty()) << "wave " << wave;
    for (MemberId b : bufferers) cluster.leave(b);
    cluster.run_for(Duration::millis(50));
    EXPECT_GE(cluster.count_buffered(id), 1u) << "wave " << wave;
  }
  // After three generations, a downstream request still succeeds.
  MemberId requester = cluster.region_members(1)[0];
  std::vector<MemberId> survivors;
  for (MemberId m : r0) {
    if (cluster.directory().alive(m)) survivors.push_back(m);
  }
  ASSERT_FALSE(survivors.empty());
  cluster.inject_remote_request(survivors[0], id, requester);
  cluster.run_for(Duration::millis(500));
  EXPECT_TRUE(cluster.endpoint(requester).has_received(id));
}

}  // namespace
}  // namespace rrmp::harness

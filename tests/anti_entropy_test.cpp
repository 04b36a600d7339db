// Tests: the Bimodal-Multicast-style anti-entropy engine ([3], paper §2).
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace rrmp::harness {
namespace {

ClusterConfig ae_config(std::size_t n, std::uint64_t seed) {
  ClusterConfig cc;
  cc.region_sizes = {n};
  cc.seed = seed;
  cc.protocol.gap_driven_recovery = false;  // isolate anti-entropy
  cc.protocol.anti_entropy = true;
  cc.protocol.anti_entropy_interval = Duration::millis(20);
  return cc;
}

TEST(AntiEntropy, DigestExchangeSpreadsAMessage) {
  Cluster cluster(ae_config(12, 1));
  // Only member 0 holds the message; no session messages, no gap recovery:
  // only digests can spread knowledge of it.
  MessageId id = cluster.inject_data_to(0, 1, std::vector<MemberId>{0});
  cluster.run_for(Duration::seconds(2));
  EXPECT_TRUE(cluster.all_received(id));
  EXPECT_GT(cluster.network().stats().sends_by_type[static_cast<int>(
                proto::MessageType::kHistory)],
            0u);
}

TEST(AntiEntropy, PullsAreBoundedPerDigest) {
  Cluster cluster(ae_config(6, 2));
  // Member 0 holds 5 x kAntiEntropyMaxPulls messages; each digest round lets
  // a peer pull at most kAntiEntropyMaxPulls.
  const std::uint64_t total = 5 * kAntiEntropyMaxPulls;
  std::vector<MemberId> holder = {0};
  for (std::uint64_t s = 1; s <= total; ++s) {
    cluster.inject_data_to(0, s, holder);
  }
  // After one digest from 0 lands somewhere, that member has at most
  // kAntiEntropyMaxPulls messages.
  cluster.run_for(Duration::millis(45));  // ~1-2 rounds
  for (MemberId m = 1; m < 6; ++m) {
    EXPECT_LE(cluster.endpoint(m).received_count(), 2 * kAntiEntropyMaxPulls)
        << "member " << m;
  }
  // But everything converges eventually.
  cluster.run_for(Duration::seconds(4));
  for (std::uint64_t s = 1; s <= total; ++s) {
    EXPECT_TRUE(cluster.all_received(MessageId{0, s})) << "seq " << s;
  }
}

TEST(AntiEntropy, GapDrivenIsFasterThanAntiEntropy) {
  auto spread_time = [](bool gap, bool ae, std::uint64_t seed) {
    ClusterConfig cc;
    cc.region_sizes = {20};
    cc.seed = seed;
    cc.protocol.gap_driven_recovery = gap;
    cc.protocol.anti_entropy = ae;
    cc.protocol.anti_entropy_interval = Duration::millis(20);
    Cluster cluster(cc);
    MessageId id = cluster.inject(0, 1, std::vector<MemberId>{0});
    cluster.run_for(Duration::seconds(5));
    EXPECT_TRUE(cluster.all_received(id));
    return cluster.metrics().last_delivery(id).ms();
  };
  double gap_ms = spread_time(true, false, 3);
  double ae_ms = spread_time(false, true, 3);
  EXPECT_LT(gap_ms, ae_ms);
}

TEST(AntiEntropy, BothEnginesCoexist) {
  ClusterConfig cc = ae_config(15, 4);
  cc.protocol.gap_driven_recovery = true;  // both on
  cc.data_loss = 0.5;
  Cluster cluster(cc);
  std::vector<MessageId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(cluster.endpoint(0).multicast({7}));
  }
  cluster.run_for(Duration::seconds(3));
  for (const MessageId& id : ids) EXPECT_TRUE(cluster.all_received(id));
}

TEST(AntiEntropy, ServesBufferFeedbackToo) {
  // Anti-entropy pulls are LocalRequests, so they feed the two-phase
  // policy's idle detection like any other request.
  Cluster cluster(ae_config(8, 5));
  MessageId id = cluster.inject_data_to(0, 1, std::vector<MemberId>{0});
  cluster.run_for(Duration::millis(30));
  // Member 0 served pulls recently; its copy must still be buffered.
  EXPECT_TRUE(cluster.endpoint(0).buffer().has(id));
  cluster.run_for(Duration::seconds(3));
  EXPECT_TRUE(cluster.all_received(id));
}

}  // namespace
}  // namespace rrmp::harness

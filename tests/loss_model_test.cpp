// Loss rules at the SimNetwork seam: the lookup order (directed link, then
// every link into the receiver, then the control or data loss), overrides
// that replace the fallback rate instead of compounding with it, and rates
// 0 and 1 that decide without drawing. Fixed seeds keep these deterministic;
// 50k sends put the Monte Carlo error well inside the ±1% tolerance.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "net/sim_network.h"
#include "net/topology.h"

namespace rrmp::net {
namespace {

constexpr int kTrials = 50000;
constexpr double kTolerance = 0.01;  // ±1% absolute

class CountingHandler : public MessageHandler {
 public:
  void on_message(const proto::Message&, MemberId) override { ++count; }
  std::size_t count = 0;
};

// One region of `members`, so one lane and one RNG stream.
struct OneRegion {
  explicit OneRegion(std::size_t members, std::uint64_t seed = 0x1055)
      : topo(make_hierarchy({members})), net(topo, RandomEngine(seed)),
        handlers(members) {
    for (MemberId m = 0; m < members; ++m) net.attach(m, &handlers[m]);
  }
  void run() { net.lane_sim(0).run(); }
  double delivered_share(MemberId m) const {
    return static_cast<double>(handlers[m].count) / kTrials;
  }
  Topology topo;
  SimNetwork net;
  std::vector<CountingHandler> handlers;
};

proto::Message probe() { return proto::Message{proto::Session{0, 1}}; }

TEST(LossRuleTest, LinkRuleBeatsMemberRuleBeatsControlLoss) {
  // Control loss drops everything; every link into 5 drops nothing; the one
  // directed link 3 -> 5 drops everything again.
  OneRegion f(8);
  f.net.set_control_loss(1.0);
  f.net.set_member_loss(5, 0.0);
  f.net.set_link_loss(3, 5, 1.0);
  f.net.unicast(3, 5, probe());  // link rule
  f.net.unicast(7, 5, probe());  // member rule
  f.net.unicast(3, 6, probe());  // control loss
  f.net.unicast(5, 3, probe());  // rules are directed: control loss
  f.run();
  EXPECT_EQ(f.handlers[5].count, 1u);  // from 7 only
  EXPECT_EQ(f.handlers[6].count, 0u);
  EXPECT_EQ(f.handlers[3].count, 0u);
  EXPECT_EQ(f.net.stats().dropped, 3u);
}

TEST(LossRuleTest, OverrideReplacesControlLossRatherThanCompounding) {
  // Into 2 the member rule's 20% applies alone: 80% arrive, not the 40%
  // that stacking it on the 50% control loss would leave.
  OneRegion f(4);
  f.net.set_control_loss(0.5);
  f.net.set_member_loss(2, 0.2);
  for (int i = 0; i < kTrials; ++i) {
    f.net.unicast(0, 1, probe());
    f.net.unicast(0, 2, probe());
  }
  f.run();
  EXPECT_NEAR(f.delivered_share(1), 0.5, kTolerance);
  EXPECT_NEAR(f.delivered_share(2), 0.8, kTolerance);
}

TEST(LossRuleTest, OverrideReplacesDataLossRatherThanCompounding) {
  // ip_multicast falls back to the sender's data loss, not the control
  // loss; a link override replaces it for that link only.
  OneRegion f(4);
  f.net.set_control_loss(1.0);
  f.net.set_data_loss(0, 0.5);
  f.net.set_data_loss(1, 1.0);  // another sender's rate does not apply
  f.net.set_link_loss(0, 3, 0.2);
  for (int i = 0; i < kTrials; ++i) f.net.ip_multicast(0, probe());
  f.run();
  EXPECT_NEAR(f.delivered_share(1), 0.5, kTolerance);
  EXPECT_NEAR(f.delivered_share(2), 0.5, kTolerance);
  EXPECT_NEAR(f.delivered_share(3), 0.8, kTolerance);
}

TEST(LossRuleTest, RatesZeroAndOneDrawNothing) {
  // Two networks on one seed, both at 50% control loss. One also sends to
  // 5 and 6, behind rate-0 and rate-1 member rules; the other never sends
  // to them. If those two rules drew from the lane's stream, every later
  // draw would shift and the other members' counts would differ.
  constexpr int kRounds = 50;
  OneRegion with(10), without(10);
  with.net.set_control_loss(0.5);
  without.net.set_control_loss(0.5);
  with.net.set_member_loss(5, 0.0);
  with.net.set_member_loss(6, 1.0);
  for (int round = 0; round < kRounds; ++round) {
    for (MemberId m = 1; m <= 9; ++m) {
      with.net.unicast(0, m, probe());
      if (m != 5 && m != 6) without.net.unicast(0, m, probe());
    }
  }
  with.run();
  without.run();
  EXPECT_EQ(with.handlers[5].count, static_cast<std::size_t>(kRounds));
  EXPECT_EQ(with.handlers[6].count, 0u);
  for (MemberId m = 1; m <= 9; ++m) {
    if (m == 5 || m == 6) continue;
    EXPECT_EQ(with.handlers[m].count, without.handlers[m].count)
        << "member " << m;
  }
}

}  // namespace
}  // namespace rrmp::net

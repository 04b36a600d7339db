// Unit tests: topology/latency model, simulated network.
#include <gtest/gtest.h>

#include "net/sim_network.h"
#include "net/topology.h"

namespace rrmp::net {
namespace {

TEST(TopologyTest, RegionsAndMembers) {
  Topology topo;
  RegionId r0 = topo.add_region("root", std::nullopt);
  RegionId r1 = topo.add_region("child", r0);
  auto a = topo.add_members(r0, 3);
  auto b = topo.add_members(r1, 2);
  EXPECT_EQ(topo.member_count(), 5u);
  EXPECT_EQ(topo.region_count(), 2u);
  EXPECT_EQ(topo.members_of(r0), a);
  EXPECT_EQ(topo.members_of(r1), b);
  for (MemberId m : a) EXPECT_EQ(topo.region_of(m), r0);
  for (MemberId m : b) EXPECT_EQ(topo.region_of(m), r1);
  EXPECT_FALSE(topo.parent_of(r0).has_value());
  EXPECT_EQ(topo.parent_of(r1), r0);
  EXPECT_EQ(topo.region_name(r1), "child");
}

TEST(TopologyTest, UnknownParentThrows) {
  Topology topo;
  EXPECT_THROW(topo.add_region("x", RegionId{5}), std::out_of_range);
  EXPECT_THROW(topo.add_member(RegionId{0}), std::out_of_range);
}

TEST(TopologyTest, IntraRegionLatencyIsHalfRtt) {
  Topology topo;
  RegionId r = topo.add_region("r", std::nullopt, Duration::millis(10));
  auto ms = topo.add_members(r, 2);
  EXPECT_EQ(topo.one_way_latency(ms[0], ms[1]), Duration::millis(5));
  EXPECT_EQ(topo.rtt(ms[0], ms[1]), Duration::millis(10));
}

TEST(TopologyTest, InterRegionLatencyDefaultAndOverride) {
  Topology topo;
  topo.set_default_inter_latency(Duration::millis(50));
  RegionId r0 = topo.add_region("a", std::nullopt);
  RegionId r1 = topo.add_region("b", r0);
  RegionId r2 = topo.add_region("c", r0);
  MemberId m0 = topo.add_member(r0);
  MemberId m1 = topo.add_member(r1);
  MemberId m2 = topo.add_member(r2);
  EXPECT_EQ(topo.one_way_latency(m0, m1), Duration::millis(50));
  topo.set_inter_latency(r0, r2, Duration::millis(80));
  EXPECT_EQ(topo.one_way_latency(m0, m2), Duration::millis(80));
  EXPECT_EQ(topo.one_way_latency(m2, m0), Duration::millis(80));  // symmetric
  EXPECT_EQ(topo.rtt(m0, m2), Duration::millis(160));
}

TEST(TopologyTest, DeepHierarchyLatencySumsHopsToCommonAncestor) {
  // root -> a -> aa and root -> b: members of aa and b are three hops
  // apart (aa->a, a->root, root->b), not one flat default hop.
  Topology topo;
  topo.set_default_inter_latency(Duration::millis(50));
  RegionId root = topo.add_region("root", std::nullopt);
  RegionId a = topo.add_region("a", root);
  RegionId aa = topo.add_region("aa", a);
  RegionId b = topo.add_region("b", root);
  MemberId m_root = topo.add_member(root);
  MemberId m_aa = topo.add_member(aa);
  MemberId m_b = topo.add_member(b);
  // Ancestor-descendant: one hop per level.
  EXPECT_EQ(topo.one_way_latency(m_root, m_aa), Duration::millis(100));
  EXPECT_EQ(topo.one_way_latency(m_aa, m_root), Duration::millis(100));
  // Cross-subtree: both paths to the common ancestor.
  EXPECT_EQ(topo.one_way_latency(m_aa, m_b), Duration::millis(150));
  // A per-edge override changes every path through that edge...
  topo.set_inter_latency(a, aa, Duration::millis(10));
  EXPECT_EQ(topo.one_way_latency(m_aa, m_b), Duration::millis(110));
  EXPECT_EQ(topo.parent_edge_latency(aa), Duration::millis(10));
  // ...while a direct pair override short-circuits the hierarchy sum.
  topo.set_inter_latency(aa, b, Duration::millis(30));
  EXPECT_EQ(topo.one_way_latency(m_aa, m_b), Duration::millis(30));
  EXPECT_EQ(topo.one_way_latency(m_b, m_aa), Duration::millis(30));
}

TEST(TopologyTest, ForestLatencyBridgesDistinctRoots) {
  Topology topo;
  topo.set_default_inter_latency(Duration::millis(50));
  RegionId r0 = topo.add_region("tree0", std::nullopt);
  RegionId r1 = topo.add_region("tree1", std::nullopt);
  RegionId r1c = topo.add_region("tree1-child", r1);
  MemberId m0 = topo.add_member(r0);
  MemberId m1c = topo.add_member(r1c);
  // Climb to tree1's root, then one bridging hop between the roots.
  EXPECT_EQ(topo.one_way_latency(m0, m1c), Duration::millis(100));
}

TEST(TopologyTest, MakeHierarchyBuildsExpectedShape) {
  Topology topo = make_hierarchy({4, 3, 2});
  EXPECT_EQ(topo.region_count(), 3u);
  EXPECT_EQ(topo.member_count(), 9u);
  EXPECT_EQ(topo.parent_of(1), RegionId{0});
  EXPECT_EQ(topo.parent_of(2), RegionId{0});
  std::vector<RegionId> parents = {0, 0, 1};
  Topology chain = make_hierarchy({2, 2, 2}, Duration::millis(10),
                                  Duration::millis(50), &parents);
  EXPECT_EQ(chain.parent_of(2), RegionId{1});
}

// ------------------------------------------------------------ SimNetwork ----

class CollectingHandler : public MessageHandler {
 public:
  struct Received {
    proto::Message msg;
    MemberId from;
  };
  void on_message(const proto::Message& msg, MemberId from) override {
    received.push_back({msg, from});
  }
  std::vector<Received> received;
};

// Two regions, so two lanes: region 1's traffic crosses the outbox.
struct NetFixture {
  NetFixture() : topo(make_hierarchy({3, 2})), net(topo, RandomEngine(7)) {
    handlers.resize(topo.member_count());
    for (MemberId m = 0; m < topo.member_count(); ++m) {
      net.attach(m, &handlers[m]);
    }
  }
  // Fires every lane up to the earliest pending event, exchanging outboxes
  // before each step, until nothing is left. Returns the last event's time.
  TimePoint run() {
    TimePoint last = TimePoint::zero();
    for (net.exchange(); net.next_event_time() != TimePoint::max();
         net.exchange()) {
      last = net.next_event_time();
      for (std::size_t l = 0; l < net.lane_count(); ++l) {
        net.lane_sim(l).run_until(last);
      }
    }
    return last;
  }
  Topology topo;
  SimNetwork net;
  std::vector<CollectingHandler> handlers;
};

TEST(SimNetworkTest, UnicastDeliversAfterOneWayLatency) {
  NetFixture f;
  f.net.unicast(0, 1, proto::Message{proto::Session{0, 5}});
  EXPECT_TRUE(f.handlers[1].received.empty());
  EXPECT_EQ(f.run(), TimePoint::zero() + Duration::millis(5));
  ASSERT_EQ(f.handlers[1].received.size(), 1u);
  EXPECT_EQ(f.handlers[1].received[0].from, 0u);
}

TEST(SimNetworkTest, CrossRegionUnicastUsesInterLatency) {
  NetFixture f;
  ASSERT_EQ(f.net.lane_count(), 2u);
  f.net.unicast(0, 3, proto::Message{proto::Session{0, 5}});  // member 3: region 1
  EXPECT_EQ(f.run(), TimePoint::zero() + Duration::millis(50));
  EXPECT_EQ(f.handlers[3].received.size(), 1u);
}

TEST(SimNetworkTest, RegionalMulticastReachesRegionExceptSender) {
  NetFixture f;
  f.net.multicast_region(0, proto::Message{proto::Session{0, 1}});
  f.run();
  EXPECT_TRUE(f.handlers[0].received.empty());  // not self
  EXPECT_EQ(f.handlers[1].received.size(), 1u);
  EXPECT_EQ(f.handlers[2].received.size(), 1u);
  EXPECT_TRUE(f.handlers[3].received.empty());  // other region
  EXPECT_TRUE(f.handlers[4].received.empty());
}

TEST(SimNetworkTest, IpMulticastToExplicitReceivers) {
  NetFixture f;
  std::vector<MemberId> receivers = {1, 4};
  f.net.ip_multicast_to(0, proto::Message{proto::Session{0, 1}}, receivers);
  f.run();
  EXPECT_EQ(f.handlers[1].received.size(), 1u);
  EXPECT_EQ(f.handlers[4].received.size(), 1u);
  EXPECT_TRUE(f.handlers[2].received.empty());
}

TEST(SimNetworkTest, IpMulticastLossRateApplies) {
  NetFixture f;
  f.net.set_data_loss(0, 0.5);
  for (int i = 0; i < 200; ++i) {
    f.net.ip_multicast(0, proto::Message{proto::Session{0, 1}});
  }
  f.run();
  // 4 receivers x 200 sends x 50% -> ~400.
  std::size_t delivered = 0;
  for (const auto& h : f.handlers) delivered += h.received.size();
  EXPECT_GT(delivered, 300u);
  EXPECT_LT(delivered, 500u);
  EXPECT_GT(f.net.stats().dropped, 0u);
}

TEST(SimNetworkTest, DetachedMemberReceivesNothing) {
  NetFixture f;
  f.net.detach(1);
  EXPECT_FALSE(f.net.attached(1));
  f.net.unicast(0, 1, proto::Message{proto::Session{0, 1}});
  f.run();
  EXPECT_TRUE(f.handlers[1].received.empty());
}

TEST(SimNetworkTest, ControlLossDropsUnicasts) {
  NetFixture f;
  f.net.set_control_loss(1.0);
  f.net.unicast(0, 1, proto::Message{proto::Session{0, 1}});
  f.run();
  EXPECT_TRUE(f.handlers[1].received.empty());
  EXPECT_EQ(f.net.stats().dropped, 1u);
}

TEST(SimNetworkTest, CodecRoundTripModePreservesMessages) {
  NetFixture f;
  f.net.set_codec_roundtrip(true);
  proto::Data d{MessageId{0, 9}, {1, 2, 3}};
  f.net.unicast(0, 1, proto::Message{d});
  f.run();
  ASSERT_EQ(f.handlers[1].received.size(), 1u);
  const auto* got = std::get_if<proto::Data>(&f.handlers[1].received[0].msg);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, d);
}

TEST(SimNetworkTest, TrafficStatsCountTypesAndBytes) {
  NetFixture f;
  f.net.unicast(0, 1, proto::Message{proto::Session{0, 1}});
  f.net.unicast(0, 1, proto::Message{proto::Data{MessageId{0, 1}, {1, 2}}});
  f.run();
  const TrafficStats& s = f.net.stats();
  EXPECT_EQ(s.sends, 2u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.sends_by_type[static_cast<int>(proto::MessageType::kSession)], 1u);
  EXPECT_EQ(s.sends_by_type[static_cast<int>(proto::MessageType::kData)], 1u);
  EXPECT_GT(s.bytes_sent, 0u);
}

TEST(SimNetworkTest, JitterStretchesLatency) {
  NetFixture f;
  f.net.set_latency_jitter(1.0);  // latency in [5, 10] ms
  f.net.unicast(0, 1, proto::Message{proto::Session{0, 1}});
  TimePoint t = f.run();
  EXPECT_GE(t, TimePoint::zero() + Duration::millis(5));
  EXPECT_LE(t, TimePoint::zero() + Duration::millis(10));
}

TEST(SimNetworkTest, AttachNullHandlerThrows) {
  NetFixture f;
  EXPECT_THROW(f.net.attach(0, nullptr), std::invalid_argument);
}

TEST(SimNetworkTest, FanOutRecipientsShareOnePayloadAllocation) {
  // Zero-copy delivery contract: every recipient of a regional multicast
  // sees the *same* payload buffer, not a per-recipient copy.
  NetFixture f;
  proto::Data d{MessageId{0, 1}, {9, 8, 7, 6}};
  f.net.multicast_region(0, proto::Message{d});
  f.run();
  ASSERT_EQ(f.handlers[1].received.size(), 1u);
  ASSERT_EQ(f.handlers[2].received.size(), 1u);
  const auto& p1 = std::get<proto::Data>(f.handlers[1].received[0].msg).payload;
  const auto& p2 = std::get<proto::Data>(f.handlers[2].received[0].msg).payload;
  EXPECT_EQ(p1, d.payload);
  EXPECT_TRUE(p1.shares_owner_with(d.payload));
  EXPECT_TRUE(p1.shares_owner_with(p2));
}

TEST(SimNetworkTest, CodecRoundTripFanOutSharesOneWireBuffer) {
  // With codec_roundtrip on, the message is encoded once per multicast and
  // every recipient's payload aliases that single wire buffer.
  NetFixture f;
  f.net.set_codec_roundtrip(true);
  proto::Data d{MessageId{0, 2}, {1, 2, 3}};
  f.net.multicast_region(0, proto::Message{d});
  f.run();
  ASSERT_EQ(f.handlers[1].received.size(), 1u);
  ASSERT_EQ(f.handlers[2].received.size(), 1u);
  const auto& p1 = std::get<proto::Data>(f.handlers[1].received[0].msg).payload;
  const auto& p2 = std::get<proto::Data>(f.handlers[2].received[0].msg).payload;
  EXPECT_EQ(p1, d.payload);
  EXPECT_FALSE(p1.shares_owner_with(d.payload));  // re-decoded from the wire
  EXPECT_TRUE(p1.shares_owner_with(p2));          // ... which is shared
}

}  // namespace
}  // namespace rrmp::net

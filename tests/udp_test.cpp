// Real-socket tests: the same endpoints running over loopback UDP.
// Skipped gracefully if the environment forbids binding UDP sockets.
#include <gtest/gtest.h>

#include "harness/udp_runtime.h"

namespace rrmp::harness {
namespace {

std::unique_ptr<UdpRuntime> try_make(const net::Topology& topo,
                                     UdpRuntimeConfig cfg) {
  try {
    return std::make_unique<UdpRuntime>(topo, cfg);
  } catch (const std::runtime_error& e) {
    return nullptr;
  }
}

// Short timings so wall-clock test time stays low: RTT 4 ms, T = 16 ms.
UdpRuntimeConfig fast_config(std::uint16_t port, std::uint64_t seed) {
  UdpRuntimeConfig cfg;
  cfg.base_port = port;
  cfg.seed = seed;
  cfg.protocol.session_interval = Duration::millis(20);
  std::get<buffer::TwoPhaseParams>(cfg.policy).idle_threshold =
      Duration::millis(16);
  return cfg;
}

net::Topology fast_topology(std::vector<std::size_t> sizes) {
  return net::make_hierarchy(sizes, Duration::millis(4), Duration::millis(10));
}

TEST(UdpRuntime, LosslessMulticastReachesEveryone) {
  net::Topology topo = fast_topology({6});
  auto rt = try_make(topo, fast_config(38100, 1));
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  MessageId id = rt->endpoint(0).multicast({1, 2, 3, 4});
  rt->run_for(Duration::millis(300));
  EXPECT_TRUE(rt->all_received(id));
  EXPECT_GT(rt->bus().datagrams_received(), 0u);
}

TEST(UdpRuntime, RecoveryRepairsRealPacketLoss) {
  net::Topology topo = fast_topology({8});
  UdpRuntimeConfig cfg = fast_config(38200, 2);
  cfg.data_loss = 0.4;  // drop 40% of the initial fan-out
  auto rt = try_make(topo, cfg);
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  std::vector<MessageId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(rt->endpoint(0).multicast({static_cast<std::uint8_t>(i)}));
  }
  rt->run_for(Duration::millis(1500));
  for (const MessageId& id : ids) {
    EXPECT_TRUE(rt->all_received(id)) << "seq " << id.seq;
  }
  // Loss happened and was repaired through retransmission requests.
  EXPECT_GT(rt->metrics().counters().local_requests_sent, 0u);
  EXPECT_GT(rt->metrics().counters().repairs_sent, 0u);
}

TEST(UdpRuntime, CrossRegionRepairOverSockets) {
  net::Topology topo = fast_topology({4, 4});
  UdpRuntimeConfig cfg = fast_config(38300, 3);
  cfg.protocol.lambda = 4.0;  // the whole child region misses: recover fast
  auto rt = try_make(topo, cfg);
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  // Hand-deliver the message to region 0 only, then let session messages
  // expose it to region 1 (datagram loss of the initial multicast).
  proto::Data d{MessageId{0, 1}, {7, 7, 7}};
  for (MemberId m = 0; m < 4; ++m) {
    rt->endpoint(m).handle_message(proto::Message{d}, 0);
  }
  proto::Session s{0, 1};
  for (MemberId m = 4; m < 8; ++m) {
    rt->endpoint(m).handle_message(proto::Message{s}, 0);
  }
  rt->run_for(Duration::millis(1500));
  EXPECT_TRUE(rt->all_received(d.id));
  EXPECT_GE(rt->metrics().counters().remote_repairs_sent, 1u);
}

TEST(UdpRuntime, TwoPhaseIdleDiscardHappensInRealTime) {
  net::Topology topo = fast_topology({6});
  UdpRuntimeConfig cfg = fast_config(38400, 4);
  std::get<buffer::TwoPhaseParams>(cfg.policy).C = 0.0;  // keep nothing
  auto rt = try_make(topo, cfg);
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  MessageId id = rt->endpoint(0).multicast({1});
  rt->run_for(Duration::millis(400));  // >> T = 16 ms of silence
  for (MemberId m = 0; m < 6; ++m) {
    EXPECT_FALSE(rt->endpoint(m).buffer().has(id)) << "member " << m;
  }
  EXPECT_TRUE(rt->all_received(id));
}

// Over emulated latency a round trip also crosses the runtime's own loop: a
// release timer and a socket hop each way. The retry timer must outlast
// that, or each loss costs a second request and a second repair.
TEST(UdpRuntime, EmulatedRecoveryAsksOncePerLoss) {
  constexpr std::uint64_t kMessages = 40;
  constexpr double kLosses = kMessages / 2;
  net::Topology topo = fast_topology({4});
  UdpRuntimeConfig cfg = fast_config(38700, 7);
  cfg.drop_fn = [](std::uint64_t seq, MemberId to) {
    return to == 3 && seq % 2 == 0;  // member 3 misses every even frame
  };
  auto rt = try_make(topo, cfg);
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  std::vector<MessageId> ids;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    ids.push_back(rt->endpoint(0).multicast({static_cast<std::uint8_t>(i)}));
  }
  auto all_done = [&] {
    for (const MessageId& id : ids) {
      if (!rt->all_received(id)) return false;
    }
    return true;
  };
  for (int round = 0; round < 10 && !all_done(); ++round) {
    rt->run_for(Duration::millis(200));
  }
  for (const MessageId& id : ids) {
    EXPECT_TRUE(rt->all_received(id)) << "seq " << id.seq;
  }
  // One of each per loss when the timer holds; 1.5 leaves room for a slow
  // (sanitized) loop.
  const auto& counters = rt->metrics().counters();
  EXPECT_LE(counters.local_requests_sent, 1.5 * kLosses);
  EXPECT_LE(counters.repairs_sent, 1.5 * kLosses);
}

// Thread-per-core runtime: members partitioned across two worker event
// loops, cross-worker traffic through the kernel, merged metrics. The same
// recovery guarantees must hold as on the single-threaded path.
TEST(UdpRuntime, MultiWorkerPartitionedLoopsDeliverAndRecover) {
  net::Topology topo = fast_topology({4, 4});
  UdpRuntimeConfig cfg = fast_config(38600, 6);
  cfg.workers = 2;
  cfg.data_loss = 0.3;
  auto rt = try_make(topo, cfg);
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  ASSERT_EQ(rt->worker_count(), 2u);
  EXPECT_EQ(rt->worker_of(0), 0u);
  EXPECT_EQ(rt->worker_of(7), 1u);
  std::vector<MessageId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(rt->endpoint(0).multicast({static_cast<std::uint8_t>(i)}));
  }
  // Two event-loop threads share one core here, so recovery wall time is
  // noisy: run in bounded rounds until the stream converges.
  auto all_done = [&] {
    for (const MessageId& id : ids) {
      if (!rt->all_received(id)) return false;
    }
    return true;
  };
  for (int round = 0; round < 10 && !all_done(); ++round) {
    rt->run_for(Duration::millis(500));
  }
  for (const MessageId& id : ids) {
    EXPECT_TRUE(rt->all_received(id)) << "seq " << id.seq;
  }
  // Worker sinks merge into one coherent view: every member delivered every
  // message, and the lossy fan-out forced real repair traffic.
  const auto& counters = rt->metrics().counters();
  EXPECT_GE(counters.delivered, ids.size() * (topo.member_count() - 1));
  EXPECT_GT(counters.repairs_sent, 0u);
  EXPECT_GT(rt->datagrams_received(), 0u);
}

TEST(UdpRuntime, StraySocketDataIsIgnored) {
  net::Topology topo = fast_topology({3});
  auto rt = try_make(topo, fast_config(38500, 5));
  if (!rt) GTEST_SKIP() << "UDP sockets unavailable";
  // Throw garbage at member 0's socket from member 1's address: the decode
  // layer must reject it without disturbing the protocol.
  rt->bus().send(1, 0, {0xFF, 0x00, 0xAA});
  rt->bus().send(1, 0, {});
  MessageId id = rt->endpoint(0).multicast({9});
  rt->run_for(Duration::millis(300));
  EXPECT_TRUE(rt->all_received(id));
}

}  // namespace
}  // namespace rrmp::harness

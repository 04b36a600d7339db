// Transport parity: the same protocol scenario on the discrete-event
// simulator and on real loopback UDP sockets must produce the same
// protocol-level outcome (who delivered what), differing only in timing
// noise. This is the strongest check that Endpoint is genuinely
// transport-agnostic.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/random.h"
#include "harness/cluster.h"
#include "harness/udp_runtime.h"

namespace rrmp::harness {
namespace {

TEST(TransportParity, SameScenarioSameDeliveriesOnBothTransports) {
  constexpr std::size_t kMembers = 6;
  constexpr int kMessages = 5;

  // --- simulator run ---
  ClusterConfig cc;
  cc.region_sizes = {kMembers};
  cc.seed = 2024;
  cc.data_loss = 0.3;
  cc.intra_rtt = Duration::millis(4);
  std::get<buffer::TwoPhaseParams>(cc.policy).idle_threshold =
      Duration::millis(16);
  cc.protocol.session_interval = Duration::millis(10);
  Cluster sim_run(cc);
  std::vector<MessageId> sim_ids;
  for (int i = 0; i < kMessages; ++i) {
    sim_ids.push_back(sim_run.endpoint(0).multicast({std::uint8_t(i)}));
  }
  sim_run.run_for(Duration::seconds(2));

  // --- UDP run (same protocol parameters; loss pattern differs by RNG
  // stream, but the *outcome contract* must match) ---
  net::Topology topo =
      net::make_hierarchy({kMembers}, Duration::millis(4), Duration::millis(10));
  UdpRuntimeConfig uc;
  uc.base_port = 39700;
  uc.seed = 2024;
  uc.data_loss = 0.3;
  uc.protocol = cc.protocol;
  uc.policy = cc.policy;
  std::unique_ptr<UdpRuntime> udp;
  try {
    udp = std::make_unique<UdpRuntime>(topo, uc);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  std::vector<MessageId> udp_ids;
  for (int i = 0; i < kMessages; ++i) {
    udp_ids.push_back(udp->endpoint(0).multicast({std::uint8_t(i)}));
  }
  udp->run_for(Duration::millis(1500));

  // Identical id assignment.
  EXPECT_EQ(sim_ids, udp_ids);
  // Identical outcome: every message delivered everywhere on BOTH stacks.
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(sim_run.all_received(sim_ids[static_cast<std::size_t>(i)]))
        << "sim seq " << i + 1;
    EXPECT_TRUE(udp->all_received(udp_ids[static_cast<std::size_t>(i)]))
        << "udp seq " << i + 1;
  }
  // Both stacks exercised the recovery machinery (loss was injected).
  EXPECT_GT(sim_run.metrics().counters().repairs_sent, 0u);
  EXPECT_GT(udp->metrics().counters().repairs_sent, 0u);
}

TEST(TransportParity, BufferPolicyBehavesIdenticallyAtProtocolLevel) {
  // After the stream settles, both stacks must converge to the same buffer
  // *policy* outcome class: a small random subset of long-term bufferers.
  net::Topology topo =
      net::make_hierarchy({8}, Duration::millis(4), Duration::millis(10));
  UdpRuntimeConfig uc;
  uc.base_port = 39800;
  uc.seed = 7;
  uc.protocol.session_interval = Duration::millis(10);
  uc.policy = buffer::TwoPhaseParams{Duration::millis(16), 3.0};
  std::unique_ptr<UdpRuntime> udp;
  try {
    udp = std::make_unique<UdpRuntime>(topo, uc);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  MessageId id = udp->endpoint(0).multicast({1, 2, 3});
  udp->run_for(Duration::millis(600));
  std::size_t buffered = 0;
  for (MemberId m = 0; m < 8; ++m) {
    if (udp->endpoint(m).buffer().has(id)) ++buffered;
  }
  // Binomial(8, 3/8): nearly always strictly fewer than everyone.
  EXPECT_LT(buffered, 8u);
  EXPECT_TRUE(udp->all_received(id));
}

// The drop decision for one (message seq, receiver) pair of the shared loss
// schedule: a pure splitmix64 hash thresholded at `rate`, so the simulator
// and the UDP transport lose *exactly* the same initial-dissemination
// datagrams without sharing any RNG state.
bool scheduled_drop(std::uint64_t seq, MemberId to, double rate) {
  std::uint64_t state = seq * 0x9E3779B97F4A7C15ull ^
                        (static_cast<std::uint64_t>(to) + 1) * 0xBF58476D1CE4E5B9ull;
  std::uint64_t h = splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

// Recovery-curve parity: run the same scenario — same protocol parameters,
// same topology timing, and the *same deterministic loss schedule* on the
// initial dissemination — on the discrete-event simulator and on real
// loopback UDP sockets, sampling the fraction of (message, receiver) pairs
// delivered at fixed checkpoints. The real transport's recovery curve must
// track the simulator's prediction within tolerance and both must converge
// to full delivery. `fan_out` runs the UDP side with its multicast group
// taken, so ip_multicast falls back to one unicast per member.
void check_recovery_curve(bool fan_out) {
  constexpr std::size_t kMembers = 8;
  constexpr int kMessages = 6;
  constexpr double kLossRate = 0.35;
  constexpr int kCheckpoints = 10;
  const Duration kStep = Duration::millis(150);
  auto drop = [](std::uint64_t seq, MemberId to) {
    return scheduled_drop(seq, to, kLossRate);
  };

  // The schedule must actually drop something (and not everything).
  int drops = 0;
  for (int s = 1; s <= kMessages; ++s) {
    for (MemberId m = 1; m < kMembers; ++m) {
      if (drop(static_cast<std::uint64_t>(s), m)) ++drops;
    }
  }
  ASSERT_GT(drops, 0);
  ASSERT_LT(drops, kMessages * static_cast<int>(kMembers - 1));

  // --- simulator run: the prediction --------------------------------------
  ClusterConfig cc;
  cc.region_sizes = {kMembers};
  cc.seed = 4242;
  cc.intra_rtt = Duration::millis(4);
  std::get<buffer::TwoPhaseParams>(cc.policy).idle_threshold =
      Duration::millis(16);
  cc.protocol.session_interval = Duration::millis(10);
  Cluster sim_run(cc);
  sim_run.network().set_data_drop_fn(
      [&](const proto::Message& msg, MemberId to) {
        const auto* d = std::get_if<proto::Data>(&msg);
        return d != nullptr && drop(d->id.seq, to);
      });
  std::vector<MessageId> sim_ids;
  for (int i = 0; i < kMessages; ++i) {
    sim_ids.push_back(sim_run.endpoint(0).multicast({std::uint8_t(i)}));
  }
  const double total =
      static_cast<double>(kMessages) * static_cast<double>(kMembers);
  std::vector<double> sim_curve;
  for (int c = 0; c < kCheckpoints; ++c) {
    sim_run.run_for(kStep);
    std::size_t got = 0;
    for (const MessageId& id : sim_ids) got += sim_run.count_received(id);
    sim_curve.push_back(static_cast<double>(got) / total);
  }

  // --- UDP run: same protocol parameters, same schedule --------------------
  net::Topology topo = net::make_hierarchy({kMembers}, Duration::millis(4),
                                           Duration::millis(10));
  UdpRuntimeConfig uc;
  uc.base_port = fan_out ? 39950 : 39900;
  uc.seed = 4242;
  uc.protocol = cc.protocol;
  uc.policy = cc.policy;
  uc.drop_fn = drop;
  // A socket bound to the group's address without SO_REUSEADDR makes the
  // bus's own group bind fail.
  int blocker = -1;
  if (fan_out) {
    blocker = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in group{};
    group.sin_family = AF_INET;
    group.sin_port = htons(uc.base_port);
    group.sin_addr.s_addr = htonl(0xEFFF0000u | uc.base_port);
    if (blocker < 0 || ::bind(blocker, reinterpret_cast<sockaddr*>(&group),
                              sizeof(group)) != 0) {
      if (blocker >= 0) ::close(blocker);
      GTEST_SKIP() << "cannot bind the multicast group address";
    }
  }
  std::unique_ptr<UdpRuntime> udp;
  try {
    udp = std::make_unique<UdpRuntime>(topo, uc);
  } catch (const std::runtime_error&) {
    if (blocker >= 0) ::close(blocker);
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  if (blocker >= 0) {
    ::close(blocker);
    ASSERT_FALSE(udp->bus().group_active());
  }
  std::vector<MessageId> udp_ids;
  for (int i = 0; i < kMessages; ++i) {
    udp_ids.push_back(udp->endpoint(0).multicast({std::uint8_t(i)}));
  }
  EXPECT_EQ(sim_ids, udp_ids);
  std::vector<double> udp_curve;
  for (int c = 0; c < kCheckpoints; ++c) {
    udp->run_for(kStep);
    std::size_t got = 0;
    for (const MessageId& id : udp_ids) got += udp->count_received(id);
    udp_curve.push_back(static_cast<double>(got) / total);
  }

  // Pointwise tolerance: both transports see identical initial losses, so
  // the curves differ only by repair-timing noise (wall-clock scheduling on
  // the UDP side vs ideal discrete-event timing).
  for (int c = 0; c < kCheckpoints; ++c) {
    EXPECT_NEAR(udp_curve[c], sim_curve[c], 0.25)
        << "checkpoint " << c << " (t=" << (c + 1) * kStep.us() / 1000
        << "ms): sim predicted " << sim_curve[c] << ", real transport saw "
        << udp_curve[c];
  }
  // Both recover fully on the shared schedule.
  EXPECT_DOUBLE_EQ(sim_curve.back(), 1.0);
  EXPECT_DOUBLE_EQ(udp_curve.back(), 1.0);
  // Loss was injected, so both stacks exercised the repair machinery.
  EXPECT_GT(sim_run.metrics().counters().repairs_sent, 0u);
  EXPECT_GT(udp->metrics().counters().repairs_sent, 0u);
  // The receiving buses lost exactly the scheduled (seq, receiver) pairs:
  // each one, and nothing else, was detected as a loss.
  EXPECT_EQ(udp->metrics().counters().losses_detected,
            static_cast<std::uint64_t>(drops));
  if (fan_out) {
    EXPECT_EQ(udp->bus().group_sends(), 0u);
    return;
  }
  if (!udp->bus().group_active()) {
    GTEST_SKIP() << "loopback multicast group unavailable: the run fanned "
                    "out by unicast";
  }
  // Every Data frame and Session went out as one group datagram.
  EXPECT_GE(udp->bus().group_sends(), static_cast<std::uint64_t>(kMessages));
}

TEST(TransportParity, RecoveryCurveMatchesSimulatorOnSharedLossSchedule) {
  check_recovery_curve(/*fan_out=*/false);
}

TEST(TransportParity, RecoveryCurveMatchesSimulatorOnFanOutFallback) {
  check_recovery_curve(/*fan_out=*/true);
}

}  // namespace
}  // namespace rrmp::harness

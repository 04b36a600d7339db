// Unit tests for the loopback-UDP datagram bus (sockets, timers, delays,
// batched syscalls, copy-out receive, event-loop timing). Skipped when the
// environment forbids binding UDP sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>

#include "net/udp_host.h"

namespace rrmp::net {
namespace {

std::unique_ptr<UdpBus> try_bus(std::size_t members, std::uint16_t port,
                                UdpBusConfig cfg = {}) {
  try {
    return std::make_unique<UdpBus>(members, port, cfg);
  } catch (const std::runtime_error&) {
    return nullptr;
  }
}

TEST(UdpBusTest, SendAndReceiveRoundTrip) {
  auto bus = try_bus(2, 39500);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  std::vector<std::uint8_t> got;
  MemberId got_from = kInvalidMember;
  bus->set_receive_callback(
      [&](MemberId to, MemberId from, std::span<const std::uint8_t> bytes) {
        if (to == 1) {
          got.assign(bytes.begin(), bytes.end());
          got_from = from;
          bus->stop();
        }
      });
  bus->send(0, 1, {1, 2, 3, 4});
  bus->run_until(bus->now() + Duration::millis(500));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(got_from, 0u);
}

TEST(UdpBusTest, TimerFiresApproximatelyOnTime) {
  auto bus = try_bus(1, 39510);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  TimePoint fired_at = TimePoint::max();
  bus->schedule_after(Duration::millis(50), [&] { fired_at = bus->now(); });
  bus->run_until(bus->now() + Duration::millis(300));
  ASSERT_NE(fired_at, TimePoint::max());
  EXPECT_GE(fired_at, TimePoint::zero() + Duration::millis(49));
  EXPECT_LE(fired_at, TimePoint::zero() + Duration::millis(200));
}

TEST(UdpBusTest, CancelledTimerNeverFires) {
  auto bus = try_bus(1, 39520);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  bool fired = false;
  std::uint64_t id =
      bus->schedule_after(Duration::millis(20), [&] { fired = true; });
  bus->cancel(id);
  bus->run_until(bus->now() + Duration::millis(100));
  EXPECT_FALSE(fired);
}

TEST(UdpBusTest, DelayFnPostponesDatagrams) {
  auto bus = try_bus(2, 39530);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  bus->set_delay_fn([](MemberId, MemberId) { return Duration::millis(80); });
  TimePoint received_at = TimePoint::max();
  bus->set_receive_callback(
      [&](MemberId to, MemberId, std::span<const std::uint8_t>) {
        if (to == 1) {
          received_at = bus->now();
          bus->stop();
        }
      });
  bus->send(0, 1, {42});
  bus->run_until(bus->now() + Duration::millis(500));
  ASSERT_NE(received_at, TimePoint::max());
  EXPECT_GE(received_at, TimePoint::zero() + Duration::millis(79));
}

TEST(UdpBusTest, CountersTrackTraffic) {
  auto bus = try_bus(3, 39540);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  int received = 0;
  bus->set_receive_callback(
      [&](MemberId, MemberId, std::span<const std::uint8_t>) {
        if (++received == 4) bus->stop();
      });
  bus->send(0, 1, {1});
  bus->send(0, 2, {2});
  bus->send(1, 2, {3});
  bus->send(2, 0, {4});
  bus->run_until(bus->now() + Duration::millis(500));
  EXPECT_EQ(bus->datagrams_sent(), 4u);
  EXPECT_EQ(bus->datagrams_received(), 4u);
}

TEST(UdpBusTest, PortCollisionThrows) {
  auto first = try_bus(2, 39550);
  if (!first) GTEST_SKIP() << "UDP sockets unavailable";
  EXPECT_THROW(UdpBus(2, 39550), std::runtime_error);
}

TEST(UdpBusTest, SendToInvalidMemberIsIgnored) {
  auto bus = try_bus(1, 39560);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  bus->send(0, 99, {1});  // out of range: dropped silently
  bus->run_until(bus->now() + Duration::millis(50));
  EXPECT_EQ(bus->datagrams_sent(), 0u);
}

// Regression (port wrap-around): base_port + i used to be truncated through
// uint16, so a high base port with enough members silently wrapped past
// 65535 and bound colliding/wrong ports. Construction must throw instead.
// The check runs before any socket is opened, so no skip guard is needed.
TEST(UdpBusTest, ConstructorRejectsPortRangeOverflow) {
  EXPECT_THROW(UdpBus(100, 65500), std::runtime_error);
  EXPECT_THROW(UdpBus(65537, 1024), std::runtime_error);
}

// Regression (EINTR mid-drain): any recv error used to be treated as
// "socket drained", silently abandoning queued datagrams until the next
// poll wakeup. The classification must retry on EINTR, stop only on
// EAGAIN/EWOULDBLOCK, and surface everything else as an error.
TEST(UdpBusTest, RecvErrnoClassification) {
  using detail::RecvDisposition;
  EXPECT_EQ(detail::classify_recv_errno(EINTR), RecvDisposition::kRetry);
  EXPECT_EQ(detail::classify_recv_errno(EAGAIN), RecvDisposition::kDrained);
  EXPECT_EQ(detail::classify_recv_errno(EWOULDBLOCK),
            RecvDisposition::kDrained);
  EXPECT_EQ(detail::classify_recv_errno(ECONNREFUSED),
            RecvDisposition::kError);
  EXPECT_EQ(detail::classify_recv_errno(EBADF), RecvDisposition::kError);
}

// Regression (dead copy + ignored short writes on the immediate send
// path): wrapping a vector into SharedBytes must move, not copy, and the
// short-write predicate must flag partial datagram writes.
TEST(UdpBusTest, ImmediateSendPathMovesAndDetectsShortWrites) {
  std::vector<std::uint8_t> payload(1024, 7);
  const std::uint8_t* before = payload.data();
  SharedBytes wrapped(std::move(payload));
  EXPECT_EQ(wrapped.data(), before);  // moved, not copied

  EXPECT_TRUE(detail::is_short_write(10, 1024));
  EXPECT_FALSE(detail::is_short_write(1024, 1024));
  EXPECT_FALSE(detail::is_short_write(-1, 1024));  // error, not short write
}

TEST(UdpBusTest, BurstLargerThanOneBatchAllDelivered) {
  auto bus = try_bus(2, 39570);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  // The burst spans several recvmmsg/sendmmsg batches.
  constexpr int kBurst = 2 * static_cast<int>(UdpBus::kBatch) + 10;
  std::vector<bool> seen(kBurst, false);
  int received = 0;
  bus->set_receive_callback(
      [&](MemberId to, MemberId, std::span<const std::uint8_t> bytes) {
        if (to != 1 || bytes.size() != 2) return;
        seen[bytes[0]] = true;
        if (++received == kBurst) bus->stop();
      });
  for (int i = 0; i < kBurst; ++i) {
    bus->send(0, 1, {static_cast<std::uint8_t>(i), 0xEE});
  }
  bus->run_until(bus->now() + Duration::millis(1000));
  EXPECT_EQ(received, kBurst);
  for (int i = 0; i < kBurst; ++i) EXPECT_TRUE(seen[i]) << "datagram " << i;
  EXPECT_EQ(bus->datagrams_sent(), static_cast<std::uint64_t>(kBurst));
}

TEST(UdpBusTest, StrayPortFilteringUnderBatching) {
  auto bus = try_bus(2, 39580);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  int delivered = 0;
  bus->set_receive_callback(
      [&](MemberId, MemberId from, std::span<const std::uint8_t>) {
        ++delivered;
        EXPECT_EQ(from, 0u);  // never the stray sender
      });
  // An unrelated socket far outside the bus's port range sprays datagrams
  // at member 1 — they must be counted but never delivered.
  int stray = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(stray, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(39581);
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::uint8_t junk[3] = {1, 2, 3};
  for (int i = 0; i < 5; ++i) {
    ::sendto(stray, junk, sizeof(junk), 0,
             reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
  }
  bus->send(0, 1, {42});
  bus->run_until(bus->now() + Duration::millis(300));
  ::close(stray);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bus->datagrams_received(), 6u);  // 5 stray + 1 legit
}

// Every frame leaves the reused receive scratch before delivery: frames
// held across more than one kBatch receive keep their own bytes, whatever
// their size, on the batched and the scalar path. kBatch + 8 frames fit the
// default socket buffer.
TEST(UdpBusTest, HeldFramesSurviveScratchReuse) {
  constexpr std::size_t kSizes[] = {1, 64, 512, 513, 1024, UdpBus::kSlotSize};
  constexpr std::size_t kTotal = UdpBus::kBatch + 8;
  for (bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "scalar");
    UdpBusConfig cfg;
    cfg.batched_syscalls = batched;
    auto bus = try_bus(2, batched ? 39590 : 39595, cfg);
    if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
    std::vector<SharedBytes> held;
    bus->set_receive_callback([&](MemberId to, MemberId, SharedBytes bytes) {
      if (to != 1) return;
      held.push_back(bytes);
      if (held.size() == kTotal) bus->stop();
    });
    for (std::size_t i = 0; i < kTotal; ++i) {
      bus->send(0, 1,
                std::vector<std::uint8_t>(kSizes[i % std::size(kSizes)],
                                          static_cast<std::uint8_t>(i)));
    }
    bus->run_until(bus->now() + Duration::millis(1000));
    ASSERT_EQ(held.size(), kTotal);
    EXPECT_GE(bus->recv_syscalls(), 2u);
    for (std::size_t i = 0; i < kTotal; ++i) {
      const SharedBytes& frame = held[i];
      ASSERT_EQ(frame.size(), kSizes[i % std::size(kSizes)]) << "frame " << i;
      const auto marker = static_cast<std::uint8_t>(i);
      EXPECT_TRUE(std::all_of(frame.data(), frame.data() + frame.size(),
                              [&](std::uint8_t b) { return b == marker; }))
          << "frame " << i;
    }
  }
}

// A datagram larger than its receive slot is counted and dropped, never
// delivered, and the datagram behind it still arrives intact.
TEST(UdpBusTest, OversizedDatagramIsCountedNotDelivered) {
  constexpr std::size_t kLarge = 3000;
  static_assert(kLarge > UdpBus::kSlotSize);
  const std::vector<std::uint8_t> small = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "scalar");
    UdpBusConfig cfg;
    cfg.batched_syscalls = batched;
    auto bus = try_bus(2, batched ? 39630 : 39635, cfg);
    if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
    std::vector<std::vector<std::uint8_t>> got;
    bus->set_receive_callback([&](MemberId to, MemberId, SharedBytes bytes) {
      if (to != 1) return;
      got.emplace_back(bytes.data(), bytes.data() + bytes.size());
      bus->stop();
    });
    bus->send(0, 1, std::vector<std::uint8_t>(kLarge, 0xAA));
    bus->send(0, 1, small);
    bus->run_until(bus->now() + Duration::millis(500));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], small);
    EXPECT_EQ(bus->datagrams_received(), 2u);
  }
}

TEST(UdpBusTest, ScalarFallbackPathStillDelivers) {
  UdpBusConfig cfg;
  cfg.batched_syscalls = false;  // forced pre-batching path
  auto bus = try_bus(2, 39600, cfg);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  EXPECT_FALSE(bus->batching_active());
  std::vector<std::uint8_t> got;
  bus->set_receive_callback(
      [&](MemberId to, MemberId, std::span<const std::uint8_t> bytes) {
        if (to == 1) {
          got.assign(bytes.begin(), bytes.end());
          bus->stop();
        }
      });
  bus->send(0, 1, {9, 8, 7});
  bus->run_until(bus->now() + Duration::millis(500));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(UdpBusTest, SharedFanOutDeliversOneWireImagePerReceiver) {
  auto bus = try_bus(3, 39610);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  int received = 0;
  bus->set_receive_callback(
      [&](MemberId, MemberId, std::span<const std::uint8_t> bytes) {
        EXPECT_EQ(bytes.size(), 4u);
        if (++received == 2) bus->stop();
      });
  SharedBytes wire(std::vector<std::uint8_t>{1, 2, 3, 4});
  bus->send_shared(0, 1, wire);  // refcounted: no per-receiver copy
  bus->send_shared(0, 2, wire);
  bus->run_until(bus->now() + Duration::millis(500));
  EXPECT_EQ(received, 2);
  EXPECT_EQ(bus->datagrams_sent(), 2u);
}

// Subset ownership (thread-per-core runtime): two buses over one port
// group, each binding half the members, exchange datagrams through the
// kernel.
TEST(UdpBusTest, SubsetBusesExchangeAcrossOwnershipBoundary) {
  UdpBusConfig lo;
  lo.first_member = 0;
  lo.owned_count = 1;
  UdpBusConfig hi;
  hi.first_member = 1;
  hi.owned_count = 1;
  auto bus_lo = try_bus(2, 39620, lo);
  if (!bus_lo) GTEST_SKIP() << "UDP sockets unavailable";
  auto bus_hi = try_bus(2, 39620, hi);
  ASSERT_TRUE(bus_hi) << "subset buses must not collide on ports";
  EXPECT_TRUE(bus_lo->owns(0));
  EXPECT_FALSE(bus_lo->owns(1));
  std::vector<std::uint8_t> got;
  MemberId got_from = kInvalidMember;
  bus_hi->set_receive_callback(
      [&](MemberId to, MemberId from, std::span<const std::uint8_t> bytes) {
        if (to == 1) {
          got.assign(bytes.begin(), bytes.end());
          got_from = from;
          bus_hi->stop();
        }
      });
  bus_lo->send(0, 1, {5, 6});
  bus_lo->flush_sends();
  bus_hi->run_until(bus_hi->now() + Duration::millis(500));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{5, 6}));
  EXPECT_EQ(got_from, 0u);
}

// GSO/GRO offload: a burst of equal-size datagrams to one receiver is sent
// as UDP_SEGMENT trains and received (possibly kernel-coalesced) with every
// datagram's distinct content and per-destination order intact. Where the
// kernel lacks the offload, the bus silently falls back and the same
// contract holds.
TEST(UdpBusTest, OffloadTrainsPreserveDatagramBoundariesAndOrder) {
  UdpBusConfig cfg;
  cfg.segmentation_offload = true;
  auto bus = try_bus(2, 39640, cfg);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  constexpr int kCount = static_cast<int>(UdpBus::kBatch) + 8;
  std::vector<std::vector<std::uint8_t>> got;
  bus->set_receive_callback(
      [&](MemberId to, MemberId, SharedBytes bytes) {
        if (to == 1) got.emplace_back(bytes.data(), bytes.data() + bytes.size());
      });
  for (int i = 0; i < kCount; ++i) {
    std::vector<std::uint8_t> payload(64, 0);
    payload[0] = static_cast<std::uint8_t>(i);
    payload[63] = static_cast<std::uint8_t>(0xFF - i);
    bus->send(0, 1, std::move(payload));
  }
  // A trailing burst of different sizes must survive the train carving.
  bus->send(0, 1, {0xEE});
  bus->send(0, 1, {0xDD, 0xDC, 0xDB});
  bus->run_until(bus->now() + Duration::millis(500));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount) + 2);
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)].size(), 64u) << "datagram " << i;
    EXPECT_EQ(got[static_cast<std::size_t>(i)][0],
              static_cast<std::uint8_t>(i));
    EXPECT_EQ(got[static_cast<std::size_t>(i)][63],
              static_cast<std::uint8_t>(0xFF - i));
  }
  EXPECT_EQ(got[kCount], std::vector<std::uint8_t>{0xEE});
  EXPECT_EQ(got[kCount + 1], (std::vector<std::uint8_t>{0xDD, 0xDC, 0xDB}));
  if (bus->offload_active()) {
    // 40 equal-size datagrams queued together must have trained: far fewer
    // send syscalls than datagrams.
    EXPECT_GE(bus->gso_batches(), 1u);
    EXPECT_LT(bus->send_syscalls(), static_cast<std::uint64_t>(kCount));
  }
}

// Round-robin fan-out across several receivers: the flush buckets the
// queue by destination, so every receiver gets its full, in-order stream
// even when trains and singletons interleave.
TEST(UdpBusTest, OffloadFanOutBucketsByDestination) {
  UdpBusConfig cfg;
  cfg.segmentation_offload = true;
  auto bus = try_bus(4, 39650, cfg);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  constexpr int kRounds = 30;
  std::vector<std::vector<std::uint8_t>> per_member[4];
  bus->set_receive_callback(
      [&](MemberId to, MemberId, SharedBytes bytes) {
        per_member[to].emplace_back(bytes.data(), bytes.data() + bytes.size());
      });
  for (int i = 0; i < kRounds; ++i) {
    for (MemberId to = 1; to < 4; ++to) {
      bus->send(0, to, {static_cast<std::uint8_t>(i), std::uint8_t(to)});
    }
  }
  bus->run_until(bus->now() + Duration::millis(500));
  for (MemberId to = 1; to < 4; ++to) {
    ASSERT_EQ(per_member[to].size(), static_cast<std::size_t>(kRounds))
        << "member " << to;
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_EQ(per_member[to][static_cast<std::size_t>(i)],
                (std::vector<std::uint8_t>{static_cast<std::uint8_t>(i),
                                           std::uint8_t(to)}))
          << "member " << to << " datagram " << i;
    }
  }
}

// Timers fire on time: a chain of timers 1.3 ms apart never fires early,
// and its median lateness stays well under a millisecond. A wait rounded up
// to whole milliseconds would fire each one about 0.7 ms late.
TEST(UdpBusTest, TimerChainFiresWithinMicroseconds) {
  auto bus = try_bus(1, 39660);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  constexpr std::size_t kTimers = 200;
  const Duration gap = Duration::micros(1300);
  std::vector<std::int64_t> late_us;
  TimePoint due;
  std::function<void()> tick = [&] {
    late_us.push_back((bus->now() - due).us());
    if (late_us.size() == kTimers) {
      bus->stop();
      return;
    }
    due = bus->now() + gap;
    bus->schedule_after(gap, tick);
  };
  due = bus->now() + gap;
  bus->schedule_after(gap, tick);
  bus->run_until(bus->now() + Duration::seconds(2));
  ASSERT_EQ(late_us.size(), kTimers);
  EXPECT_GE(*std::min_element(late_us.begin(), late_us.end()), 0)
      << "a timer fired before its due time";
  auto mid = late_us.begin() + kTimers / 2;
  std::nth_element(late_us.begin(), mid, late_us.end());
  EXPECT_LT(*mid, 500) << "median lateness in µs";
}

// A wake drains only the sockets the poll reported ready: on a 16-member
// bus where member 0 alone receives, each datagram costs one recv call, not
// one per member.
TEST(UdpBusTest, WakeDrainsOnlyReadySockets) {
  constexpr std::size_t kMembers = 16;
  auto bus = try_bus(kMembers, 39670);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  constexpr int kDatagrams = 100;
  int received = 0;
  bus->set_receive_callback([&](MemberId to, MemberId, SharedBytes) {
    EXPECT_EQ(to, 0u);
    if (++received == kDatagrams) bus->stop();
  });
  int sent = 0;
  std::function<void()> send_next = [&] {
    bus->send(1, 0, {static_cast<std::uint8_t>(sent)});
    if (++sent < kDatagrams) {
      bus->schedule_after(Duration::millis(1), send_next);
    }
  };
  bus->schedule_after(Duration::zero(), send_next);
  bus->run_until(bus->now() + Duration::seconds(2));
  ASSERT_EQ(received, kDatagrams);
  EXPECT_LE(bus->recv_syscalls(), bus->poll_syscalls() + kMembers)
      << bus->poll_syscalls() << " polls";
}

// A wave of due timers cannot starve the sockets: the loop polls after
// every kMaxTimersPerTurn timers, so a datagram sent by the wave's first
// timer is delivered before its last timer fires.
TEST(UdpBusTest, TimerWaveYieldsToSockets) {
  auto bus = try_bus(2, 39690);
  if (!bus) GTEST_SKIP() << "UDP sockets unavailable";
  constexpr std::size_t kTimers = 4 * UdpBus::kMaxTimersPerTurn;
  std::size_t fired = 0;
  std::size_t fired_at_delivery = 0;
  bus->set_receive_callback([&](MemberId to, MemberId, SharedBytes) {
    if (to == 1) fired_at_delivery = fired;
  });
  bus->schedule_after(Duration::zero(), [&] {
    ++fired;
    bus->send(0, 1, {7});
  });
  for (std::size_t i = 1; i < kTimers; ++i) {
    bus->schedule_after(Duration::zero(), [&] { ++fired; });
  }
  bus->run_until(bus->now() + Duration::millis(200));
  ASSERT_EQ(fired, kTimers);
  ASSERT_GT(fired_at_delivery, 0u) << "datagram never delivered";
  EXPECT_LT(fired_at_delivery, kTimers);
}

}  // namespace
}  // namespace rrmp::net

// Loopback-UDP datagram bus: runs the same protocol endpoints on real
// sockets, built for throughput.
//
// Each member is a UDP socket bound to 127.0.0.1:(base_port + member). A bus
// may own a *subset* of the members (thread-per-core runtime: each worker
// bus binds only its members' sockets but can send to every port in the
// group), serviced by one event loop on the caller's thread so endpoint
// code needs no locking.
//
// Linux only: the bus relies on recvmmsg(), sendmmsg() and ppoll().
//
// Group multicast: each bus also opens one group socket, bound to
// (239.255.hi.lo, base_port) for base_port = hi·256 + lo and joined on
// 127.0.0.1. SO_REUSEADDR lets the buses of one group share it, and the
// group address keeps groups on other base ports apart. It queues every
// owned member's multicast frames, so its receive buffer is their combined
// default. send_group() writes one datagram to the group; every bus drains
// it once and hands one shared copy to each of its own members except the
// sender. Where a group setup call fails, send_group() returns false and
// callers fan out by unicast.
//
// Event loop (run_until): each turn fires at most kMaxTimersPerTurn due
// timers, flushes the send queue, then sleeps in ppoll() with a µs timeout
// until the next timer or the deadline — or polls without sleeping while
// due timers remain, so a timer wave cannot starve the sockets — and drains
// only the sockets the poll reported ready. Timers therefore fire within
// the kernel's timer slack of their due time.
//
// Throughput path:
//  - receives are batched through recvmmsg() into one preallocated scratch
//    of kBatch slots that every receive reuses. Each frame is then copied
//    into an exact-size SharedBytes before delivery, so a buffered payload
//    holds its own bytes and never pins receive memory.
//  - sends are queued and flushed through sendmmsg() in batches; a regional
//    fan-out enqueues one refcounted SharedBytes per receiver, so the wire
//    image is encoded once for the whole group.
//
// An optional delay function injects the topology's latency, so WAN timing
// can be reproduced on loopback: a unicast datagram waits at the sender
// before it is handed to the socket, a group frame at each receiving bus
// before it is handed to each receiver. An optional drop function decides
// loss per (received datagram, receiving member), before that delay.
#pragma once

#include <netinet/in.h>
#include <poll.h>

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace rrmp::net {

namespace detail {

/// What a failed recv*() errno means for the drain loop. EINTR must retry
/// the same socket (a signal mid-drain is not "drained" — treating it as
/// such silently abandons queued datagrams until the next poll wakeup);
/// EAGAIN/EWOULDBLOCK mean genuinely drained; anything else is a real error
/// that deserves a log line before moving on.
enum class RecvDisposition { kRetry, kDrained, kError };
RecvDisposition classify_recv_errno(int err);

/// True when a send syscall reported fewer bytes on the wire than requested
/// (short datagram write): the receiver would decode garbage, so warn.
inline bool is_short_write(std::int64_t sent, std::size_t requested) {
  return sent >= 0 && static_cast<std::size_t>(sent) < requested;
}

}  // namespace detail

struct UdpBusConfig {
  /// Subset ownership (thread-per-core runtime): bind sockets for members
  /// [first_member, first_member + owned_count) out of a group of
  /// `member_count` total ports. Defaults own the whole group.
  std::size_t first_member = 0;
  std::size_t owned_count = SIZE_MAX;  // clamped to member_count

  /// Shared clock epoch (monotonic ns) so several worker buses agree on
  /// now(); 0 = this bus starts its own epoch at construction.
  std::int64_t epoch_ns = 0;
};

class UdpBus {
 public:
  /// Due timers fired per loop turn before the sockets are polled again.
  static constexpr std::size_t kMaxTimersPerTurn = 64;
  /// Datagrams per recvmmsg()/sendmmsg() call, and slots in the receive
  /// scratch.
  static constexpr std::size_t kBatch = 32;
  /// Bytes per receive slot. A larger datagram is counted and dropped with
  /// a warning (protocol frames are far smaller).
  static constexpr std::size_t kSlotSize = 2048;

  /// Binds one socket per owned member, then the group socket. Throws
  /// std::runtime_error if the port range would overflow 65535
  /// (base_port + member_count must fit — silent uint16 wrap-around used to
  /// bind colliding/wrong ports) or if any member bind fails (e.g. ports in
  /// use or sockets unavailable); a group socket that cannot be set up only
  /// turns send_group() off.
  UdpBus(std::size_t member_count, std::uint16_t base_port,
         UdpBusConfig config = {});
  ~UdpBus();

  UdpBus(const UdpBus&) = delete;
  UdpBus& operator=(const UdpBus&) = delete;

  /// Delivery callback. Every frame arrives in its own exact-size buffer,
  /// so keeping the SharedBytes (or a slice of it) alive holds only that
  /// frame's bytes.
  using ReceiveFn =
      std::function<void(MemberId to, MemberId from, SharedBytes bytes)>;
  void set_receive_callback(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// Artificial one-way delay: a unicast datagram waits before it is
  /// written to the socket, a group frame after it is received, per
  /// receiver. nullptr means no delay.
  using DelayFn = std::function<Duration(MemberId from, MemberId to)>;
  void set_delay_fn(DelayFn fn) { delay_fn_ = std::move(fn); }

  /// Loss emulation, asked once per (received datagram, receiving member)
  /// before the delay and the receive callback: true drops the frame for
  /// that member. nullptr drops nothing.
  using DropFn = std::function<bool(MemberId from, MemberId to,
                                    std::span<const std::uint8_t> frame)>;
  void set_drop_fn(DropFn fn) { drop_fn_ = std::move(fn); }

  /// Monotonic time since the epoch, as a simulated-time TimePoint.
  TimePoint now() const;

  void send(MemberId from, MemberId to, std::vector<std::uint8_t> bytes) {
    send_shared(from, to, SharedBytes(std::move(bytes)));
  }
  /// Refcounted send: a fan-out enqueues N references to one wire image
  /// instead of N copies. `from` must be owned by this bus.
  void send_shared(MemberId from, MemberId to, SharedBytes bytes);
  /// One datagram to the group: every bus of the group hands it to each of
  /// its members except `from`, which must be owned by this bus. Returns
  /// false, having sent nothing, when the group path is unavailable; the
  /// caller then fans out with send_shared().
  bool send_group(MemberId from, SharedBytes bytes);

  /// Timers fire on the loop thread, interleaved with receives, in (time,
  /// scheduling) order. cancel() is O(1) and a no-op on a fired id.
  std::uint64_t schedule_after(Duration d, sim::Callback fn) {
    return timers_.schedule_at(now() + d, std::move(fn)).value;
  }
  void cancel(std::uint64_t timer_id) {
    timers_.cancel(sim::TimerId{timer_id});
  }

  /// Service sockets and timers until `deadline` (bus time) passes or
  /// stop() is called, then poll once more without sleeping.
  void run_until(TimePoint deadline);
  void stop() { stopped_ = true; }

  /// Push any queued batched sends to the kernel now (run_until flushes
  /// automatically each iteration; this covers sends issued outside it).
  void flush_sends();

  std::size_t member_count() const { return total_members_; }
  std::size_t owned_count() const { return owned_; }
  MemberId first_member() const {
    return static_cast<MemberId>(first_member_);
  }
  bool owns(MemberId m) const {
    return m >= first_member_ && m < first_member_ + owned_;
  }
  /// True when the group socket is up, so send_group() can send.
  bool group_active() const { return sockets_.size() > owned_; }

  /// Datagrams written; a group datagram counts once.
  std::uint64_t datagrams_sent() const { return datagrams_sent_; }
  /// send_group() calls that sent (each one datagram).
  std::uint64_t group_sends() const { return group_sends_; }
  std::uint64_t datagrams_received() const { return datagrams_received_; }
  /// Syscall accounting for the syscalls/msg throughput metric.
  std::uint64_t send_syscalls() const { return send_syscalls_; }
  std::uint64_t recv_syscalls() const { return recv_syscalls_; }
  std::uint64_t poll_syscalls() const { return poll_syscalls_; }
  /// Always 0: frames are copied out of the receive scratch, so no
  /// delivered SharedBytes pins receive memory. Kept because bench_e2e
  /// still reports it as net.ring_replacements.
  std::uint64_t ring_replacements() const { return 0; }

 private:
  struct PendingSend {
    MemberId from;
    MemberId to;  // kGroup for a group datagram
    SharedBytes bytes;
  };
  static constexpr MemberId kGroup = kInvalidMember;

  sockaddr_in dest_addr(MemberId to) const;  // a member's port, or kGroup
  void write_datagram(MemberId from, MemberId to, SharedBytes bytes);
  void flush_run(std::size_t begin, std::size_t end);  // same-fd run
  /// Fires due timers, at most kMaxTimersPerTurn; true if more are due.
  bool fire_due_timers();
  /// Waits up to `timeout` for a readable socket and drains the ready
  /// ones; false on a poll error.
  bool poll_and_drain(Duration timeout);
  void drain_socket(std::size_t local);
  /// Hands a frame received on socket `local` to its member, or, from the
  /// group socket, to every owned member but the sender.
  void deliver(std::size_t local, std::uint16_t src_port,
               std::span<const std::uint8_t> frame);
  int fd_of(MemberId m) const { return sockets_[m - first_member_].fd; }

  UdpBusConfig config_;
  std::uint16_t base_port_;
  std::size_t total_members_;
  std::size_t first_member_;
  // One socket per owned member, local index order, then the group socket
  // when it is up; doubles as the poll set.
  std::vector<pollfd> sockets_;
  std::size_t owned_ = 0;
  // Per owned member: IP_MULTICAST_IF not tried yet (0), set (1), refused
  // (-1). Set on a member's first group send.
  std::vector<std::int8_t> group_if_;
  ReceiveFn on_receive_;
  DelayFn delay_fn_;
  DropFn drop_fn_;
  std::int64_t epoch_ns_ = 0;
  bool stopped_ = false;

  // Receive scratch: kBatch slots of kSlotSize bytes, reused by every
  // receive call.
  std::vector<std::uint8_t> scratch_;
  std::vector<PendingSend> send_queue_;

  // Timer queue on bus time: its clock advances only by firing due timers,
  // so it never runs ahead of the wall clock.
  sim::Simulator timers_;

  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t group_sends_ = 0;
  std::uint64_t datagrams_received_ = 0;
  std::uint64_t send_syscalls_ = 0;
  std::uint64_t recv_syscalls_ = 0;
  std::uint64_t poll_syscalls_ = 0;
};

}  // namespace rrmp::net

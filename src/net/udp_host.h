// Loopback-UDP datagram bus: runs the same protocol endpoints on real
// sockets, built for throughput.
//
// Each member is a UDP socket bound to 127.0.0.1:(base_port + member). A bus
// may own a *subset* of the members (thread-per-core runtime: each worker
// bus binds only its members' sockets but can send to every port in the
// group), serviced by one event loop on the caller's thread so endpoint
// code needs no locking. IP multicast is emulated by unicast fan-out
// (documented substitution: the sandbox offers no multicast routing; the
// protocol above only observes per-receiver delivery, which is identical).
//
// Event loop (run_until): each turn fires at most kMaxTimersPerTurn due
// timers, flushes the send queue, then sleeps in ppoll() with a µs timeout
// until the next timer or the deadline — or polls without sleeping while
// due timers remain, so a timer wave cannot starve the sockets — and drains
// only the sockets the poll reported ready. Timers therefore fire within
// the kernel's timer slack of their due time. Non-Linux builds fall back to
// poll() with millisecond timeouts rounded up.
//
// Throughput path (Linux, on by default):
//  - receives are batched through recvmmsg() into one preallocated scratch
//    of kBatch slots that every receive reuses. Each frame is then copied
//    into an exact-size SharedBytes before delivery, so a buffered payload
//    holds its own bytes and never pins receive memory.
//  - sends are queued and flushed through sendmmsg() in batches; a regional
//    fan-out enqueues one refcounted SharedBytes per receiver, so the wire
//    image is encoded once for the whole group.
//  - with segmentation_offload on, equal-size same-destination runs of the
//    send queue become one sendmsg(UDP_SEGMENT) train (one kernel traversal
//    for up to 64 datagrams — syscall batching alone cannot touch the
//    per-datagram network-stack cost that dominates on modern kernels), and
//    receive sockets opt into UDP_GRO so the kernel hands back coalesced
//    trains, which land in 64 KiB slots and are split into one copy per
//    datagram.
// Where the batched syscalls are unavailable (non-Linux, or a kernel that
// returns ENOSYS/EOPNOTSUPP) the bus falls back one level at a time —
// offload to sendmmsg, sendmmsg to the scalar recvfrom()/sendto() path —
// with identical semantics.
//
// An optional delay function injects the topology's latency before a
// datagram is handed to the socket, so WAN timing can be reproduced on
// loopback.
#pragma once

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
  /// false forces the scalar recvfrom()/sendto() path (the pre-batching
  /// behaviour; also the automatic fallback where recvmmsg is unavailable).
  bool batched_syscalls = true;
  /// Linux UDP segmentation offload: flushes bucket the send queue by
  /// destination and emit equal-size trains as one sendmsg(UDP_SEGMENT);
  /// receive sockets enable UDP_GRO and split coalesced trains into
  /// datagrams. Enlarges receive slots to 64 KiB (a full train). Off by
  /// default; falls back to plain sendmmsg/recvmmsg where the kernel
  /// refuses it.
  bool segmentation_offload = false;

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
  /// a warning (protocol frames are far smaller); with GRO on, slots hold a
  /// whole 64 KiB train instead.
  static constexpr std::size_t kSlotSize = 2048;

  /// Binds one socket per owned member. Throws std::runtime_error if the
  /// port range would overflow 65535 (base_port + member_count must fit —
  /// silent uint16 wrap-around used to bind colliding/wrong ports) or if
  /// any bind fails (e.g. ports in use or sockets unavailable).
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

  /// Artificial one-way delay applied before a datagram is written to the
  /// socket; nullptr means send immediately.
  using DelayFn = std::function<Duration(MemberId from, MemberId to)>;
  void set_delay_fn(DelayFn fn) { delay_fn_ = std::move(fn); }

  /// Monotonic time since the epoch, as a simulated-time TimePoint.
  TimePoint now() const;

  void send(MemberId from, MemberId to, std::vector<std::uint8_t> bytes) {
    send_shared(from, to, SharedBytes(std::move(bytes)));
  }
  /// Refcounted send: a fan-out enqueues N references to one wire image
  /// instead of N copies. `from` must be owned by this bus.
  void send_shared(MemberId from, MemberId to, SharedBytes bytes);

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
  std::size_t owned_count() const { return sockets_.size(); }
  MemberId first_member() const {
    return static_cast<MemberId>(first_member_);
  }
  bool owns(MemberId m) const {
    return m >= first_member_ && m < first_member_ + sockets_.size();
  }

  std::uint64_t datagrams_sent() const { return datagrams_sent_; }
  std::uint64_t datagrams_received() const { return datagrams_received_; }
  /// Syscall accounting for the syscalls/msg throughput metric.
  std::uint64_t send_syscalls() const { return send_syscalls_; }
  std::uint64_t recv_syscalls() const { return recv_syscalls_; }
  std::uint64_t poll_syscalls() const { return poll_syscalls_; }
  /// Always 0: frames are copied out of the receive scratch, so no
  /// delivered SharedBytes pins receive memory. Kept because bench_e2e
  /// still reports it as net.ring_replacements.
  std::uint64_t ring_replacements() const { return 0; }
  /// True while the batched recvmmsg/sendmmsg path is active (false after
  /// an ENOSYS fallback or when configured off).
  bool batching_active() const { return batched_; }
  /// True while GSO sends / GRO receives are active (requested, supported
  /// by the kernel, and not disabled by a runtime fallback).
  bool offload_active() const { return gso_active_ || gro_active_; }
  /// sendmsg(UDP_SEGMENT) trains emitted (each covers ≥2 datagrams).
  std::uint64_t gso_batches() const { return gso_batches_; }
  /// GRO-coalesced trains received and split into ≥2 datagram views.
  std::uint64_t gro_trains() const { return gro_trains_; }

 private:
  struct PendingSend {
    MemberId from;
    MemberId to;
    SharedBytes bytes;
  };

  void write_datagram(MemberId from, MemberId to, SharedBytes bytes);
  void write_datagram_scalar(MemberId from, MemberId to,
                             std::span<const std::uint8_t> bytes);
  void flush_run(std::size_t begin, std::size_t end);  // same-fd run
  /// Queue entries [begin, begin+count) — same from/to/size — as one
  /// sendmsg(UDP_SEGMENT) train. Returns entries consumed (count on
  /// success, 1 when the train had to be dropped on a send error, 0 when
  /// the kernel refused offload and gso_active_ was cleared — the caller
  /// then re-sends the same range through sendmmsg).
  std::size_t send_gso_train(std::size_t begin, std::size_t count);
  /// Fires due timers, at most kMaxTimersPerTurn; true if more are due.
  bool fire_due_timers();
  /// Waits up to `timeout` for a readable socket and drains the ready
  /// ones; false on a poll error.
  bool poll_and_drain(Duration timeout);
  void drain_socket_scalar(std::size_t local);
  void drain_socket_batched(std::size_t local);
  void deliver(std::size_t local, std::uint16_t src_port,
               std::span<const std::uint8_t> frame);
  int fd_of(MemberId m) const { return sockets_[m - first_member_].fd; }

  UdpBusConfig config_;
  std::uint16_t base_port_;
  std::size_t total_members_;
  std::size_t first_member_;
  // One socket per owned member, local index order; doubles as the poll set.
  std::vector<pollfd> sockets_;
  ReceiveFn on_receive_;
  DelayFn delay_fn_;
  std::int64_t epoch_ns_ = 0;
  bool stopped_ = false;
  bool batched_ = true;
  bool gso_active_ = false;
  bool gro_active_ = false;

  // Receive scratch: kBatch slots of slot_size_ bytes, reused by every
  // receive call.
  std::size_t slot_size_ = kSlotSize;
  std::vector<std::uint8_t> scratch_;
  std::vector<PendingSend> send_queue_;

  // Timer queue on bus time: its clock advances only by firing due timers,
  // so it never runs ahead of the wall clock.
  sim::Simulator timers_;

  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t datagrams_received_ = 0;
  std::uint64_t send_syscalls_ = 0;
  std::uint64_t recv_syscalls_ = 0;
  std::uint64_t poll_syscalls_ = 0;
  std::uint64_t gso_batches_ = 0;
  std::uint64_t gro_trains_ = 0;
};

}  // namespace rrmp::net

#include "net/udp_host.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/logging.h"

namespace rrmp::net {
namespace {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// The group of the members on ports base_port..: 239.255.hi.lo for
// base_port = hi·256 + lo, so groups on different base ports never meet.
sockaddr_in group_addr(std::uint16_t base_port) {
  sockaddr_in addr = loopback_addr(base_port);
  addr.sin_addr.s_addr = htonl(0xEFFF0000u | base_port);
  return addr;
}

int open_udp_socket() {
  return ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

// The group socket: bound to the group address, so it hears only this
// group and never collides with the members' 127.0.0.1 ports; SO_REUSEADDR
// so the buses of one group share it; joined on loopback. Returns -1, with
// a warning, when any step fails.
//
// It queues the multicast frames of all `owned` members, so it asks for
// their combined default receive buffer (the kernel caps it at
// net.core.rmem_max): one default buffer overflowed on the burst a stalled
// loop sends when it wakes, losing those frames at every member at once.
int open_group_socket(std::uint16_t base_port, std::size_t owned) {
  int fd = open_udp_socket();
  if (fd < 0) return -1;
  const int on = 1;
  int rcvbuf = 0;
  socklen_t len = sizeof(rcvbuf);
  if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len) == 0 &&
      rcvbuf > 0) {
    rcvbuf = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(rcvbuf) * std::max<std::size_t>(owned, 1),
        std::numeric_limits<int>::max()));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr = group_addr(base_port);
  ip_mreq join{};
  join.imr_multiaddr = addr.sin_addr;
  join.imr_interface.s_addr = htonl(INADDR_LOOPBACK);
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on)) == 0 &&
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &join, sizeof(join)) ==
          0) {
    return fd;
  }
  log::warn("UdpBus: group socket unavailable (", std::strerror(errno),
            "): multicast falls back to unicast fan-out");
  ::close(fd);
  return -1;
}

}  // namespace

namespace detail {

RecvDisposition classify_recv_errno(int err) {
  if (err == EINTR) return RecvDisposition::kRetry;
  if (err == EAGAIN || err == EWOULDBLOCK) return RecvDisposition::kDrained;
  return RecvDisposition::kError;
}

}  // namespace detail

UdpBus::UdpBus(std::size_t member_count, std::uint16_t base_port,
               UdpBusConfig config)
    : config_(std::move(config)),
      base_port_(base_port),
      total_members_(member_count) {
  // Port-range overflow check: base_port + i used to be truncated through
  // uint16, silently wrapping past 65535 into colliding/wrong ports.
  if (static_cast<std::size_t>(base_port_) + member_count > 65536) {
    throw std::runtime_error(
        "UdpBus: port range overflow: base_port " +
        std::to_string(base_port_) + " + " + std::to_string(member_count) +
        " members exceeds port 65535");
  }
  first_member_ = std::min(config_.first_member, member_count);
  std::size_t owned =
      std::min(config_.owned_count, member_count - first_member_);
  epoch_ns_ = config_.epoch_ns != 0 ? config_.epoch_ns : monotonic_ns();

  sockets_.reserve(owned + 1);
  for (std::size_t i = 0; i < owned; ++i) {
    int fd = open_udp_socket();
    if (fd < 0) {
      for (const pollfd& p : sockets_) ::close(p.fd);
      sockets_.clear();
      throw std::runtime_error(std::string("UdpBus: socket() failed: ") +
                               std::strerror(errno));
    }
    // No SO_REUSEADDR: each member's port must be exclusive, and a
    // collision with another process should fail loudly at startup.
    sockaddr_in addr = loopback_addr(
        static_cast<std::uint16_t>(base_port_ + first_member_ + i));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      int saved = errno;
      ::close(fd);
      for (const pollfd& p : sockets_) ::close(p.fd);
      sockets_.clear();
      throw std::runtime_error(std::string("UdpBus: bind() failed: ") +
                               std::strerror(saved));
    }
    sockets_.push_back(pollfd{fd, POLLIN, 0});
  }
  owned_ = owned;
  group_if_.assign(owned, 0);
  if (int fd = open_group_socket(base_port_, owned); fd >= 0) {
    sockets_.push_back(pollfd{fd, POLLIN, 0});
  }
  scratch_.resize(kBatch * kSlotSize);
}

UdpBus::~UdpBus() {
  for (const pollfd& p : sockets_) ::close(p.fd);
}

TimePoint UdpBus::now() const {
  return TimePoint::from_us((monotonic_ns() - epoch_ns_) / 1000);
}

sockaddr_in UdpBus::dest_addr(MemberId to) const {
  if (to == kGroup) return group_addr(base_port_);
  return loopback_addr(static_cast<std::uint16_t>(base_port_ + to));
}

void UdpBus::write_datagram(MemberId from, MemberId to, SharedBytes bytes) {
  send_queue_.push_back(PendingSend{from, to, std::move(bytes)});
  if (send_queue_.size() >= 4 * kBatch) flush_sends();
}

void UdpBus::send_shared(MemberId from, MemberId to, SharedBytes bytes) {
  if (!owns(from) || to >= total_members_) return;
  Duration d = delay_fn_ ? delay_fn_(from, to) : Duration::zero();
  if (d <= Duration::zero()) {
    write_datagram(from, to, std::move(bytes));
    return;
  }
  schedule_after(d, [this, from, to, b = std::move(bytes)]() {
    write_datagram(from, to, b);
  });
}

bool UdpBus::send_group(MemberId from, SharedBytes bytes) {
  if (!group_active() || !owns(from)) return false;
  std::int8_t& multicast_if = group_if_[from - first_member_];
  if (multicast_if == 0) {
    in_addr lo{htonl(INADDR_LOOPBACK)};
    multicast_if = ::setsockopt(fd_of(from), IPPROTO_IP, IP_MULTICAST_IF,
                                &lo, sizeof(lo)) == 0
                       ? 1
                       : -1;
    if (multicast_if < 0) {
      log::warn("UdpBus: IP_MULTICAST_IF refused (", std::strerror(errno),
                "): member ", from, " fans out by unicast");
    }
  }
  if (multicast_if <= 0) return false;
  ++group_sends_;
  write_datagram(from, kGroup, std::move(bytes));
  return true;
}

void UdpBus::flush_run(std::size_t begin, std::size_t end) {
  while (begin < end) {
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    sockaddr_in dsts[kBatch];
    const std::size_t n = std::min(end - begin, kBatch);
    for (std::size_t j = 0; j < n; ++j) {
      const PendingSend& p = send_queue_[begin + j];
      dsts[j] = dest_addr(p.to);
      iovs[j] = {const_cast<std::uint8_t*>(p.bytes.data()), p.bytes.size()};
      msgs[j] = {};
      msgs[j].msg_hdr.msg_name = &dsts[j];
      msgs[j].msg_hdr.msg_namelen = sizeof(dsts[j]);
      msgs[j].msg_hdr.msg_iov = &iovs[j];
      msgs[j].msg_hdr.msg_iovlen = 1;
    }
    int sent;
    do {
      sent = ::sendmmsg(fd_of(send_queue_[begin].from), msgs,
                        static_cast<unsigned>(n), 0);
    } while (sent < 0 && errno == EINTR);
    ++send_syscalls_;
    if (sent < 0) {
      // The error pertains to the first datagram of the batch: drop it and
      // keep going.
      log::warn("UdpBus: sendmmsg failed: ", std::strerror(errno));
      ++begin;
      continue;
    }
    for (int k = 0; k < sent; ++k) {
      const PendingSend& p = send_queue_[begin + static_cast<std::size_t>(k)];
      if (detail::is_short_write(msgs[k].msg_len, p.bytes.size())) {
        log::warn("UdpBus: short datagram write: ", msgs[k].msg_len, " of ",
                  p.bytes.size(), " bytes");
      }
      ++datagrams_sent_;
    }
    begin += static_cast<std::size_t>(sent);
  }
}

void UdpBus::flush_sends() {
  if (send_queue_.empty()) return;
  std::size_t i = 0;
  while (i < send_queue_.size()) {
    std::size_t j = i + 1;
    while (j < send_queue_.size() &&
           send_queue_[j].from == send_queue_[i].from) {
      ++j;
    }
    flush_run(i, j);
    i = j;
  }
  send_queue_.clear();
}

void UdpBus::deliver(std::size_t local, std::uint16_t src_port_be,
                     std::span<const std::uint8_t> frame) {
  ++datagrams_received_;
  std::uint16_t src_port = ntohs(src_port_be);
  if (src_port < base_port_ || src_port >= base_port_ + total_members_) {
    return;  // stray datagram from an unrelated sender
  }
  auto from = static_cast<MemberId>(src_port - base_port_);
  if (local < owned_) {
    auto to = static_cast<MemberId>(first_member_ + local);
    if (drop_fn_ && drop_fn_(from, to, frame)) return;
    // The next receive overwrites the scratch: the frame leaves it now.
    if (on_receive_) on_receive_(to, from, SharedBytes::copy_of(frame));
    return;
  }
  // A group frame: one copy, shared by every owned member but the sender,
  // each of which draws its own loss and waits out its own link delay.
  const SharedBytes bytes = SharedBytes::copy_of(frame);
  for (std::size_t i = 0; i < owned_; ++i) {
    auto to = static_cast<MemberId>(first_member_ + i);
    if (to == from || (drop_fn_ && drop_fn_(from, to, frame))) continue;
    Duration d = delay_fn_ ? delay_fn_(from, to) : Duration::zero();
    if (d > Duration::zero()) {
      schedule_after(d, [this, to, from, bytes] {
        if (on_receive_) on_receive_(to, from, bytes);
      });
    } else if (on_receive_) {
      on_receive_(to, from, bytes);
    }
  }
}

void UdpBus::drain_socket(std::size_t local) {
  for (;;) {
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    sockaddr_in srcs[kBatch];
    for (std::size_t j = 0; j < kBatch; ++j) {
      iovs[j] = {scratch_.data() + j * kSlotSize, kSlotSize};
      msgs[j] = {};
      msgs[j].msg_hdr.msg_name = &srcs[j];
      msgs[j].msg_hdr.msg_namelen = sizeof(srcs[j]);
      msgs[j].msg_hdr.msg_iov = &iovs[j];
      msgs[j].msg_hdr.msg_iovlen = 1;
    }
    int n = ::recvmmsg(sockets_[local].fd, msgs, static_cast<unsigned>(kBatch),
                       MSG_DONTWAIT, nullptr);
    ++recv_syscalls_;
    if (n < 0) {
      switch (detail::classify_recv_errno(errno)) {
        case detail::RecvDisposition::kRetry:
          continue;  // EINTR mid-drain: the queue is NOT drained
        case detail::RecvDisposition::kDrained:
          return;
        case detail::RecvDisposition::kError:
          log::warn("UdpBus: recvmmsg failed: ", std::strerror(errno));
          return;
      }
    }
    for (int j = 0; j < n; ++j) {
      if (msgs[j].msg_hdr.msg_flags & MSG_TRUNC) {
        ++datagrams_received_;
        log::warn("UdpBus: dropping datagram larger than the ", kSlotSize,
                  "-byte slot size");
        continue;
      }
      deliver(local, srcs[j].sin_port,
              {scratch_.data() + j * kSlotSize, msgs[j].msg_len});
    }
    // A short batch means the queue is (momentarily) empty; poll is
    // level-triggered, so anything arriving meanwhile wakes us again.
    if (static_cast<std::size_t>(n) < kBatch) return;
  }
}

bool UdpBus::fire_due_timers() {
  const TimePoint t = now();
  for (std::size_t fired = 0; timers_.next_event_time() <= t; ++fired) {
    if (fired == kMaxTimersPerTurn) return true;
    timers_.step();
  }
  return false;
}

bool UdpBus::poll_and_drain(Duration timeout) {
  const timespec ts{static_cast<time_t>(timeout.us() / 1'000'000),
                    static_cast<long>(timeout.us() % 1'000'000) * 1000};
  int rc = ::ppoll(sockets_.data(), sockets_.size(), &ts, nullptr);
  ++poll_syscalls_;
  if (rc < 0) {
    if (errno == EINTR) return true;
    log::error("UdpBus: poll failed: ", std::strerror(errno));
    return false;
  }
  for (std::size_t i = 0; rc > 0 && i < sockets_.size(); ++i) {
    if (sockets_[i].revents == 0) continue;
    --rc;
    drain_socket(i);
  }
  return true;
}

void UdpBus::run_until(TimePoint deadline) {
  stopped_ = false;
  for (;;) {
    const bool timers_due = fire_due_timers();
    flush_sends();
    const TimePoint t = now();
    const bool last_turn = stopped_ || t >= deadline;
    Duration timeout = Duration::zero();
    if (!last_turn && !timers_due) {
      // A timer may have come due since fire_due_timers() read the clock.
      timeout = std::max(Duration::zero(),
                         std::min(deadline, timers_.next_event_time()) - t);
    }
    if (!poll_and_drain(timeout)) return;
    flush_sends();
    if (last_turn) return;
  }
}

}  // namespace rrmp::net

#include "net/udp_host.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/logging.h"

#if defined(__linux__)
// Kernel ≥ 4.18 / ≥ 5.0 socket options; older libc headers may lack them.
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#endif

namespace rrmp::net {
namespace {

// Kernel cap on segments per GSO send (UDP_MAX_SEGMENTS) and the largest
// possible UDP payload — a train must respect both.
constexpr std::size_t kMaxGsoSegments = 64;
constexpr std::size_t kMaxUdpPayload = 65507;
// A GRO-coalesced train can be as large as one UDP datagram's payload
// bound; with GRO on, each receive slot must hold a whole train.
constexpr std::size_t kGroSlotSize = 65536;

bool offload_requested(const UdpBusConfig& c) {
#if defined(__linux__)
  return c.segmentation_offload && c.batched_syscalls;
#else
  (void)c;
  return false;
#endif
}

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
  batched_ = config_.batched_syscalls;
#if !defined(__linux__)
  batched_ = false;  // recvmmsg/sendmmsg unavailable: scalar path
#endif
  gso_active_ = gro_active_ = offload_requested(config_);
  epoch_ns_ = config_.epoch_ns != 0 ? config_.epoch_ns : monotonic_ns();

  sockets_.reserve(owned);
  for (std::size_t i = 0; i < owned; ++i) {
    int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
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
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    sockets_.push_back(pollfd{fd, POLLIN, 0});
#if defined(__linux__)
    if (gro_active_) {
      // Every socket must agree on GRO: an unsplit coalesced train on a
      // socket without the option would be delivered as one fused
      // datagram. First refusal turns it off for the bus — and strips it
      // from any socket already configured.
      int on = 1;
      if (::setsockopt(fd, IPPROTO_UDP, UDP_GRO, &on, sizeof(on)) != 0) {
        log::warn("UdpBus: UDP_GRO unsupported (", std::strerror(errno),
                  "): receive offload disabled");
        gro_active_ = false;
        int off = 0;
        for (const pollfd& p : sockets_) {
          ::setsockopt(p.fd, IPPROTO_UDP, UDP_GRO, &off, sizeof(off));
        }
      }
    }
#endif
  }
  if (gro_active_) slot_size_ = kGroSlotSize;
  scratch_.resize(kBatch * slot_size_);
}

UdpBus::~UdpBus() {
  for (const pollfd& p : sockets_) ::close(p.fd);
}

TimePoint UdpBus::now() const {
  return TimePoint::from_us((monotonic_ns() - epoch_ns_) / 1000);
}

void UdpBus::write_datagram_scalar(MemberId from, MemberId to,
                                   std::span<const std::uint8_t> bytes) {
  sockaddr_in dst =
      loopback_addr(static_cast<std::uint16_t>(base_port_ + to));
  ssize_t n;
  do {
    n = ::sendto(fd_of(from), bytes.data(), bytes.size(), 0,
                 reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
  } while (n < 0 && errno == EINTR);
  ++send_syscalls_;
  if (n < 0) {
    log::warn("UdpBus: sendto failed: ", std::strerror(errno));
    return;
  }
  if (detail::is_short_write(n, bytes.size())) {
    log::warn("UdpBus: short datagram write: ", n, " of ", bytes.size(),
              " bytes");
  }
  ++datagrams_sent_;
}

void UdpBus::write_datagram(MemberId from, MemberId to, SharedBytes bytes) {
  if (!owns(from) || to >= total_members_) return;
  if (!batched_) {
    write_datagram_scalar(from, to, bytes.span());
    return;
  }
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

std::size_t UdpBus::send_gso_train(std::size_t begin, std::size_t count) {
#if defined(__linux__)
  const PendingSend& head = send_queue_[begin];
  iovec iovs[kMaxGsoSegments];
  std::size_t total = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const SharedBytes& b = send_queue_[begin + j].bytes;
    iovs[j] = {const_cast<std::uint8_t*>(b.data()), b.size()};
    total += b.size();
  }
  sockaddr_in dst =
      loopback_addr(static_cast<std::uint16_t>(base_port_ + head.to));
  char ctrl[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  msghdr mh{};
  mh.msg_name = &dst;
  mh.msg_namelen = sizeof(dst);
  mh.msg_iov = iovs;
  mh.msg_iovlen = count;
  mh.msg_control = ctrl;
  mh.msg_controllen = sizeof(ctrl);
  cmsghdr* cm = CMSG_FIRSTHDR(&mh);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  auto seg = static_cast<std::uint16_t>(head.bytes.size());
  std::memcpy(CMSG_DATA(cm), &seg, sizeof(seg));
  ssize_t n;
  do {
    n = ::sendmsg(fd_of(head.from), &mh, 0);
  } while (n < 0 && errno == EINTR);
  ++send_syscalls_;
  if (n < 0) {
    if (errno == EINVAL || errno == ENOTSUP || errno == EOPNOTSUPP ||
        errno == ENOSYS || errno == EIO) {
      log::warn("UdpBus: UDP_SEGMENT refused (", std::strerror(errno),
                "): send offload disabled");
      gso_active_ = false;
      return 0;  // caller re-sends the range through sendmmsg
    }
    // Same policy as a failed sendmmsg batch: drop the first datagram and
    // keep going — here the whole train was one datagram on the wire.
    log::warn("UdpBus: GSO sendmsg failed: ", std::strerror(errno));
    return count;
  }
  if (detail::is_short_write(n, total)) {
    log::warn("UdpBus: short GSO train write: ", n, " of ", total, " bytes");
  }
  ++gso_batches_;
  datagrams_sent_ += count;
  return count;
#else
  (void)begin;
  (void)count;
  return 0;
#endif
}

void UdpBus::flush_run(std::size_t begin, std::size_t end) {
#if defined(__linux__)
  // With offload on, flush_sends bucketed this run by destination, so
  // equal-size groups sit contiguously: carve them off as GSO trains and
  // feed whatever is left (singletons, mixed sizes) to the sendmmsg
  // batcher below.
  auto train_len = [&](std::size_t i) {
    const PendingSend& h = send_queue_[i];
    if (h.bytes.empty()) return std::size_t{1};
    std::size_t len = 1;
    std::size_t total = h.bytes.size();
    while (i + len < end && len < kMaxGsoSegments &&
           send_queue_[i + len].to == h.to &&
           send_queue_[i + len].bytes.size() == h.bytes.size() &&
           total + h.bytes.size() <= kMaxUdpPayload) {
      ++len;
      total += h.bytes.size();
    }
    return len;
  };
  while (batched_ && begin < end) {
    if (gso_active_) {
      std::size_t t = train_len(begin);
      if (t >= 2) {
        std::size_t consumed = send_gso_train(begin, t);
        if (consumed > 0) {
          begin += consumed;
          continue;
        }
        // consumed == 0: the kernel refused offload and gso_active_ is now
        // false — re-send the same range through sendmmsg below.
      }
    }
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    sockaddr_in dsts[kBatch];
    std::size_t n = std::min(end - begin, kBatch);
    // Stop the plain batch at the next GSO train so interleaved
    // singleton/train patterns keep their trains.
    if (gso_active_) {
      std::size_t cut = 1;
      while (cut < n && train_len(begin + cut) < 2) ++cut;
      n = cut;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const PendingSend& p = send_queue_[begin + j];
      dsts[j] =
          loopback_addr(static_cast<std::uint16_t>(base_port_ + p.to));
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
      if (errno == ENOSYS) {
        log::warn("UdpBus: sendmmsg unavailable, falling back to sendto");
        batched_ = false;
        break;
      }
      // The error pertains to the first datagram of the batch: drop it
      // (the pre-batching path dropped failed sends too) and keep going.
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
#endif
  // Scalar remainder (non-Linux build, or ENOSYS fallback mid-flush).
  for (std::size_t i = begin; i < end; ++i) {
    const PendingSend& p = send_queue_[i];
    write_datagram_scalar(p.from, p.to, p.bytes.span());
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
    if (gso_active_ && j - i > 2) {
      // Bucket the run by destination so round-robin fan-outs form
      // contiguous GSO trains. Stable: per-destination datagram order is
      // preserved; cross-destination order carries no UDP guarantee.
      std::stable_sort(send_queue_.begin() + static_cast<std::ptrdiff_t>(i),
                       send_queue_.begin() + static_cast<std::ptrdiff_t>(j),
                       [](const PendingSend& a, const PendingSend& b) {
                         return a.to < b.to;
                       });
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
  if (!on_receive_) return;
  // The next receive overwrites the scratch: the frame leaves it now.
  on_receive_(static_cast<MemberId>(first_member_ + local), from,
              SharedBytes::copy_of(frame));
}

void UdpBus::drain_socket_scalar(std::size_t local) {
  for (;;) {
    sockaddr_in src{};
    socklen_t srclen = sizeof(src);
    // MSG_TRUNC: report the datagram's true length so oversized ones are
    // detected instead of silently clipped.
    ssize_t n = ::recvfrom(sockets_[local].fd, scratch_.data(), slot_size_,
                           MSG_TRUNC, reinterpret_cast<sockaddr*>(&src),
                           &srclen);
    ++recv_syscalls_;
    if (n < 0) {
      switch (detail::classify_recv_errno(errno)) {
        case detail::RecvDisposition::kRetry:
          continue;  // EINTR mid-drain: the queue is NOT drained
        case detail::RecvDisposition::kDrained:
          return;
        case detail::RecvDisposition::kError:
          log::warn("UdpBus: recvfrom failed: ", std::strerror(errno));
          return;
      }
    }
    if (static_cast<std::size_t>(n) > slot_size_) {
      ++datagrams_received_;
      log::warn("UdpBus: dropping ", n, "-byte datagram larger than the ",
                slot_size_, "-byte slot size");
      continue;
    }
    deliver(local, src.sin_port,
            {scratch_.data(), static_cast<std::size_t>(n)});
  }
}

void UdpBus::drain_socket_batched(std::size_t local) {
#if defined(__linux__)
  for (;;) {
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    sockaddr_in srcs[kBatch];
    alignas(cmsghdr) char ctrls[kBatch][CMSG_SPACE(sizeof(int))];
    for (std::size_t j = 0; j < kBatch; ++j) {
      iovs[j] = {scratch_.data() + j * slot_size_, slot_size_};
      msgs[j] = {};
      msgs[j].msg_hdr.msg_name = &srcs[j];
      msgs[j].msg_hdr.msg_namelen = sizeof(srcs[j]);
      msgs[j].msg_hdr.msg_iov = &iovs[j];
      msgs[j].msg_hdr.msg_iovlen = 1;
      if (gro_active_) {
        msgs[j].msg_hdr.msg_control = ctrls[j];
        msgs[j].msg_hdr.msg_controllen = CMSG_SPACE(sizeof(int));
      }
    }
    int n = ::recvmmsg(sockets_[local].fd, msgs, static_cast<unsigned>(kBatch),
                       MSG_DONTWAIT, nullptr);
    ++recv_syscalls_;
    if (n < 0) {
      if (errno == ENOSYS) {
        log::warn("UdpBus: recvmmsg unavailable, falling back to recvfrom");
        batched_ = false;
        drain_socket_scalar(local);
        return;
      }
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
        log::warn("UdpBus: dropping datagram larger than the ", slot_size_,
                  "-byte slot size");
        continue;
      }
      // A GRO-coalesced train arrives as one buffer with the segment size
      // in a cmsg: split it into its datagrams.
      int gro_size = 0;
      if (gro_active_) {
        for (cmsghdr* c = CMSG_FIRSTHDR(&msgs[j].msg_hdr); c != nullptr;
             c = CMSG_NXTHDR(&msgs[j].msg_hdr, c)) {
          if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
            std::memcpy(&gro_size, CMSG_DATA(c), sizeof(gro_size));
          }
        }
      }
      const std::size_t len = msgs[j].msg_len;
      const std::uint8_t* slot = scratch_.data() + j * slot_size_;
      if (gro_size > 0 && len > static_cast<std::size_t>(gro_size)) {
        ++gro_trains_;
        for (std::size_t off = 0; off < len;
             off += static_cast<std::size_t>(gro_size)) {
          std::size_t seg =
              std::min<std::size_t>(static_cast<std::size_t>(gro_size),
                                    len - off);
          deliver(local, srcs[j].sin_port, {slot + off, seg});
        }
      } else {
        deliver(local, srcs[j].sin_port, {slot, len});
      }
    }
    // A short batch means the queue is (momentarily) empty; poll is
    // level-triggered, so anything arriving meanwhile wakes us again.
    if (static_cast<std::size_t>(n) < kBatch) return;
  }
#else
  drain_socket_scalar(local);
#endif
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
#if defined(__linux__)
  const timespec ts{static_cast<time_t>(timeout.us() / 1'000'000),
                    static_cast<long>(timeout.us() % 1'000'000) * 1000};
  int rc = ::ppoll(sockets_.data(), sockets_.size(), &ts, nullptr);
#else
  // Millisecond resolution: round up so no timer is woken early.
  const int timeout_ms =
      timeout > Duration::zero() ? static_cast<int>(timeout.us() / 1000) + 1
                                 : 0;
  int rc = ::poll(sockets_.data(), sockets_.size(), timeout_ms);
#endif
  ++poll_syscalls_;
  if (rc < 0) {
    if (errno == EINTR) return true;
    log::error("UdpBus: poll failed: ", std::strerror(errno));
    return false;
  }
  for (std::size_t i = 0; rc > 0 && i < sockets_.size(); ++i) {
    if (sockets_[i].revents == 0) continue;
    --rc;
    if (batched_) {
      drain_socket_batched(i);
    } else {
      drain_socket_scalar(i);
    }
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

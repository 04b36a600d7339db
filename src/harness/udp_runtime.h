// UdpRuntime: runs unmodified RRMP endpoints over real loopback UDP sockets
// (net::UdpBus) — the "same socket APIs" deployment of the protocol.
//
// Members are partitioned into contiguous chunks across `workers` event-loop
// threads (thread-per-core). Each worker owns one UdpBus that binds only its
// members' sockets (but can address every port in the group), one
// RecordingSink, and the endpoints of its members; the worker's poll loop
// services sockets and timers for exactly that set, so endpoint code runs
// lock-free. Cross-worker traffic travels through the kernel like any other
// datagram. run_for() drives all workers over a harness::ShardPool and is a
// full barrier, so between calls the caller may touch any endpoint safely.
//
// ip_multicast() sends one datagram to the bus's loopback multicast group
// (UdpBus::send_group), and falls back to one unicast per member when the
// group socket is unavailable. multicast_region() fans out by unicast.
//
// Receive copies a frame exactly once: UdpBus hands each worker every frame
// as an exact-size SharedBytes copied out of its reused receive scratch (a
// group frame once, shared by that worker's receivers), and
// decode_shared() keeps payload blobs aliasing that copy, so a buffered
// payload holds its own frame and nothing more.
//
// Topology latency is reproduced by the bus, so WAN timing holds on
// loopback: a unicast datagram is held at the sender, a group frame at each
// receiving bus. Loss is drawn at the receiving bus on either path.
// Membership is static (the directory's initial state).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "buffer/factory.h"
#include "harness/shard_pool.h"
#include "membership/directory.h"
#include "net/topology.h"
#include "net/udp_host.h"
#include "rrmp/endpoint.h"
#include "rrmp/metrics.h"

namespace rrmp::harness {

struct UdpRuntimeConfig {
  std::uint16_t base_port = 37100;
  Config protocol;
  /// Self-describing buffer policy selection + knobs (Buffer API v2). The
  /// per-member budget rides in protocol.buffer_budget.
  buffer::PolicySpec policy = buffer::TwoPhaseParams{};
  std::uint64_t seed = 1;
  /// Per-receiver loss on the ip_multicast frames (Data and Session, the
  /// initial dissemination), as in the simulator. Drawn at the receiving
  /// bus from the receiving member's RNG.
  double data_loss = 0.0;
  /// Deterministic drop schedule for the initial dissemination: when set,
  /// `drop_fn(seq, to)` replaces the Bernoulli data_loss draw for Data
  /// frames — the same schedule the simulator applies via
  /// SimNetwork::set_data_drop_fn, so parity experiments lose exactly the
  /// same (message, receiver) pairs on both transports. Asked at the
  /// receiving bus, with `seq` read from the frame's header.
  std::function<bool(std::uint64_t seq, MemberId to)> drop_fn;
  /// Reproduce topology latencies with the bus's delays (false = raw
  /// loopback).
  bool emulate_latency = true;
  /// Event-loop threads; members are partitioned contiguously across them.
  /// 1 = everything on the caller's thread (the pre-threading behaviour);
  /// 0 = one worker per hardware core.
  std::size_t workers = 1;
};

class UdpRuntime {
 public:
  /// Throws std::runtime_error if sockets cannot be bound.
  UdpRuntime(const net::Topology& topology, UdpRuntimeConfig config);
  ~UdpRuntime();

  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  Endpoint& endpoint(MemberId m) { return *endpoints_.at(m); }
  /// Metrics folded across workers (recomputed on demand; the live sink at
  /// the single-worker default, a deterministic RecordingSink::merge
  /// otherwise).
  RecordingSink& metrics();
  net::UdpBus& bus(std::size_t worker = 0) { return *buses_.at(worker); }
  std::size_t size() const { return endpoints_.size(); }
  std::size_t worker_count() const { return buses_.size(); }
  std::size_t worker_of(MemberId m) const { return m / chunk_; }

  /// Aggregate syscall/datagram counters across worker buses.
  std::uint64_t datagrams_sent() const;
  std::uint64_t datagrams_received() const;

  /// Service sockets and timers for `d` of wall-clock time on every worker;
  /// returns after all workers reach the deadline (full barrier).
  void run_for(Duration d);

  bool all_received(const MessageId& id) const;
  std::size_t count_received(const MessageId& id) const;

 private:
  class MemberHost;

  const net::Topology& topology_;
  UdpRuntimeConfig config_;
  membership::Directory directory_;
  std::size_t chunk_ = 1;  // members per worker (last worker may own fewer)
  std::vector<std::unique_ptr<net::UdpBus>> buses_;
  std::vector<std::unique_ptr<RecordingSink>> sinks_;
  RecordingSink merged_;
  std::unique_ptr<ShardPool> pool_;
  std::vector<std::unique_ptr<MemberHost>> hosts_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace rrmp::harness

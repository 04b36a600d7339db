// Simulated network connecting protocol endpoints through the discrete-event
// simulator.
//
// Semantics:
//  - unicast: one-way topology latency (+ optional jitter), control-plane
//    loss applies.
//  - multicast_region: independent unicast to every *attached* member of the
//    sender's region except the sender (IP multicast within a region).
//  - ip_multicast / ip_multicast_to: the sender's initial dissemination;
//    either the sender's per-receiver data loss or an explicitly chosen
//    receiver set (how the paper drives Figures 6/7).
//
// Every transmission is counted in TrafficStats by type and encoded size,
// including those a partition severs or a loss draw drops.
//
// Jitter is a property of the link, not of the packet: each directed link
// from -> to stretches its one-way latency by a fixed factor 1 + jitter * u,
// with u in [0, 1) hashed from (network seed, from, to). So latency spreads
// across links and seeds, delivery draws no randomness (the loss draws are
// the same at any jitter), and every link keeps FIFO order. That no link
// reorders is a modelling assumption. Measured paths reorder rarely, not
// never: Paxson ("End-to-end Internet packet dynamics", SIGCOMM 1997) saw
// 0.3-2% of data packets arrive out of order. A fresh factor per packet
// strays further the other way: it swaps about half of the frame pairs sent
// much closer together than the jitter's spread. endpoint_test pins the
// protocol's reorder path.
//
// Loss is a rate. Each drop decision is one bernoulli(rate) draw from the
// sending lane's stream, which draws nothing at rates 0 and 1. The rate is,
// in lookup order: the directed link's override, the override on every link
// into the receiver, else the control loss (or, for ip_multicast, the
// sender's data loss). An override replaces that draw; it never compounds
// with it. Rates change only at script barriers and no rule has state, so
// concurrent lanes read them all without a copy.
//
// With codec_roundtrip enabled every message is encoded and re-decoded in
// flight, so the simulator exercises the exact wire format the UDP host
// sends on real sockets.
//
// Delivery is zero-copy: each logical send prepares the in-flight message
// *once* — encode (+ re-decode, when codec_roundtrip is on, with payload
// blobs aliasing the refcounted wire buffer) — and every fan-out recipient's
// delivery event, as well as every cross-lane outbox entry, shares one
// immutable shared_ptr<const Message>. A 1000-member regional multicast
// performs one encode and zero payload copies instead of 1000 of each.
//
// Lane partitioning: the network is split into one *lane* per region, each
// owning a private Simulator, RNG stream, traffic stats and cross-lane
// outbox. Intra-lane traffic is scheduled directly on the lane's simulator;
// cross-lane traffic is appended to the sender lane's outbox and moved into
// the destination lane's queue by exchange(), which the cluster harness
// calls at deterministic epoch barriers. Because every mutable piece of
// state is lane-local between barriers, lanes can run on concurrent worker
// threads and still produce byte-identical results for any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/topology.h"
#include "proto/messages.h"
#include "sim/simulator.h"

namespace rrmp::net {

/// Delivery interface implemented by protocol endpoints.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(const proto::Message& msg, MemberId from) = 0;
};

struct TrafficStats {
  std::uint64_t sends = 0;       // individual point-to-point transmissions
  std::uint64_t delivered = 0;   // transmissions that reached a handler
  std::uint64_t dropped = 0;     // lost to a loss draw
  std::uint64_t severed = 0;     // cut by an active partition
  std::uint64_t bytes_sent = 0;  // encoded bytes across all transmissions
  // Cross-lane accounting (sharded mode): packets entering a lane outbox and
  // packets a lane delivered that originated in another lane. Conservation
  // (sends == deliveries once drained) is asserted by the shard stress test.
  std::uint64_t cross_lane_sends = 0;
  std::uint64_t cross_lane_deliveries = 0;
  // Per message type (indexed by proto::MessageType value).
  std::array<std::uint64_t, 16> sends_by_type{};
  std::array<std::uint64_t, 16> bytes_by_type{};

  friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

class SimNetwork {
 public:
  /// One privately-owned simulator lane per region (collapsed to a single
  /// lane when that would leave fewer than two lanes or a non-positive
  /// lookahead for barriers). Lane 0 consumes `rng`'s own stream; lane l>0
  /// uses rng.fork(kLaneDomain+l).
  SimNetwork(const Topology& topology, RandomEngine rng);

  /// Register/deregister the endpoint that receives messages for `m`.
  /// Messages to unattached members are silently dropped (crashed/left).
  /// Must not be called while lanes are running (script time only).
  void attach(MemberId m, MessageHandler* handler);
  void detach(MemberId m);
  bool attached(MemberId m) const;

  /// Loss rates (see the lookup order above), all 0 until set. Must not be
  /// called while lanes are running (script time only).
  ///
  /// Unicast and regional multicast: the control plane and repairs.
  void set_control_loss(double rate) { control_loss_ = rate; }
  /// Per-receiver loss of `sender`'s ip_multicast.
  void set_data_loss(MemberId sender, double rate) {
    data_loss_.at(sender) = rate;
  }
  /// Override for the directed link src -> dst.
  void set_link_loss(MemberId src, MemberId dst, double rate) {
    link_loss_[{src, dst}] = rate;
  }
  /// Override for every link into `dst` (a lossy edge receiver).
  void set_member_loss(MemberId dst, double rate) { member_loss_[dst] = rate; }

  /// Sever all traffic between members of different `groups` (fault
  /// injection). Members listed in no group form one implicit extra group,
  /// connected among themselves. Severed sends are counted (TrafficStats::
  /// severed) but consume no loss randomness, and packets already in
  /// flight still deliver — a partition cuts links, it does not eat queues.
  /// Throws std::invalid_argument if a member appears in two groups. Must
  /// not be called while lanes are running (script time only).
  void set_partition(const std::vector<std::vector<MemberId>>& groups);
  void clear_partition() { partition_group_.clear(); }
  bool partitioned() const { return !partition_group_.empty(); }

  /// True when an active partition severs the a <-> b link.
  bool severed(MemberId a, MemberId b) const {
    return !partition_group_.empty() &&
           partition_group_[a] != partition_group_[b];
  }

  /// Stretch each directed link's latency by its own fixed factor in
  /// [1, 1+fraction) (see the jitter note above). 0 disables jitter.
  void set_latency_jitter(double fraction) { jitter_fraction_ = fraction; }

  /// Deterministic drop schedule for the initial dissemination: when set,
  /// ip_multicast asks `fn(msg, receiver)` instead of drawing its loss,
  /// consuming no RNG. This lets an experiment run the *same* loss schedule
  /// on the simulator and on the real UDP transport (transport-parity
  /// recovery curves). Unset (default) leaves every draw bit-identical to
  /// the pre-hook behaviour.
  using DataDropFn =
      std::function<bool(const proto::Message& msg, MemberId to)>;
  void set_data_drop_fn(DataDropFn fn) { data_drop_fn_ = std::move(fn); }

  /// Encode+decode every message in flight (wire-format fidelity checks).
  void set_codec_roundtrip(bool on) { codec_roundtrip_ = on; }

  void unicast(MemberId from, MemberId to, proto::Message msg);
  void multicast_region(MemberId from, proto::Message msg);

  /// Initial dissemination with independent per-receiver loss (the
  /// sender's data loss), to every member of the group except the sender.
  void ip_multicast(MemberId from, const proto::Message& msg);

  /// Initial dissemination to an explicit receiver set (scenario control).
  void ip_multicast_to(MemberId from, const proto::Message& msg,
                       std::span<const MemberId> receivers);

  /// Aggregate traffic stats across all lanes.
  TrafficStats stats() const;

  // ---- lane surface (used by the sharded cluster harness) -----------------

  std::size_t lane_count() const { return lanes_.size(); }
  std::size_t lane_of(MemberId m) const { return member_lane_[m]; }
  sim::Simulator& lane_sim(std::size_t lane) { return *lanes_[lane].sim; }
  sim::Simulator& simulator_for(MemberId m) { return *lanes_[lane_of(m)].sim; }

  /// Minimum one-way latency between members of different lanes — the safe
  /// epoch window length. Duration::infinite() with a single lane.
  Duration lookahead() const { return lookahead_; }

  /// Move every outbox entry into its destination lane's event queue.
  /// Single-threaded (barrier) only. Iterates source lanes in index order and
  /// entries in send order, so insertion sequence — and therefore FIFO
  /// tie-breaking among simultaneous arrivals — is deterministic. Returns the
  /// number of packets moved.
  std::size_t exchange();

  /// Earliest pending event time across all lanes (max() when all idle).
  TimePoint next_event_time();

  /// Total events fired across all lane simulators.
  std::uint64_t events_fired() const;

  /// True when no lane outbox holds undelivered cross-lane packets.
  bool outboxes_empty() const;

  const Topology& topology() const { return topology_; }

 private:
  /// Immutable in-flight message, shared by every recipient of a fan-out and
  /// across the cross-lane outbox exchange.
  using MessagePtr = std::shared_ptr<const proto::Message>;

  /// One logical send's in-flight form: built once, transmitted many times.
  struct Prepared {
    MessagePtr msg;  // null if the codec round-trip failed (logged)
    std::size_t wire_bytes = 0;
    std::size_t type_idx = 0;
  };

  struct CrossLanePacket {
    TimePoint deliver_at;
    MemberId from;
    MemberId to;
    MessagePtr msg;
  };

  struct Lane {
    std::unique_ptr<sim::Simulator> sim = std::make_unique<sim::Simulator>();
    RandomEngine rng;
    TrafficStats stats;
    std::vector<CrossLanePacket> outbox;

    explicit Lane(RandomEngine r) : rng(std::move(r)) {}
  };

  /// Which loss a transmission draws: none (an explicitly chosen receiver
  /// set), the control loss, or the sender's data loss (the initial
  /// dissemination, whose draw the deterministic drop schedule replaces).
  enum class Loss { kNone, kControl, kData };

  Prepared prepare(proto::Message msg);
  void transmit(MemberId from, MemberId to, const Prepared& p, Loss loss);
  void dispatch(Lane& src, std::size_t dst_lane, MemberId from, MemberId to,
                MessagePtr msg);
  /// One-way latency of from -> to, stretched by the link's jitter factor.
  Duration delay(MemberId from, MemberId to) const;
  /// The loss rate of from -> to: a link or member override, else
  /// `fallback` (the control loss, or the sender's data loss).
  double loss_rate(MemberId from, MemberId to, double fallback) const;
  void deliver(MemberId to, const proto::Message& msg, MemberId from);

  const Topology& topology_;
  std::vector<Lane> lanes_;
  std::vector<std::size_t> member_lane_;  // MemberId -> lane index
  Duration lookahead_ = Duration::infinite();
  // Indexed by member id; nullptr = detached. Sized to the topology at
  // construction, so attaching one of its members never reallocates it.
  std::vector<MessageHandler*> handlers_;
  // member -> partition group; empty when no partition is active. Read-only
  // between script barriers, so concurrent lanes may consult it freely.
  std::vector<std::uint32_t> partition_group_;
  // Loss rates, read-only between script barriers like partition_group_.
  double control_loss_ = 0.0;
  std::vector<double> data_loss_;  // indexed by sender
  std::map<std::pair<MemberId, MemberId>, double> link_loss_;
  std::map<MemberId, double> member_loss_;
  double jitter_fraction_ = 0.0;
  const std::uint64_t jitter_seed_;  // the network's seed
  bool codec_roundtrip_ = false;
  DataDropFn data_drop_fn_;
};

}  // namespace rrmp::net

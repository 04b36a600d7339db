// Simulated network connecting protocol endpoints through the discrete-event
// simulator.
//
// Semantics:
//  - unicast: one-way topology latency (+ optional jitter), control-plane
//    loss model applies.
//  - multicast_region: independent unicast to every *attached* member of the
//    sender's region except the sender (IP multicast within a region).
//  - ip_multicast / ip_multicast_to: the sender's initial dissemination;
//    either per-receiver Bernoulli loss or an explicitly chosen receiver set
//    (how the paper drives Figures 6/7).
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
// Lane partitioning (sharded mode): the network is split into one *lane* per
// region, each owning a private Simulator, RNG stream, loss-model clone,
// traffic stats and cross-lane outbox. Intra-lane traffic is scheduled
// directly on the lane's simulator; cross-lane traffic is appended to the
// sender lane's outbox and moved into the destination lane's queue by
// exchange(), which the cluster harness calls at deterministic epoch
// barriers. Because every mutable piece of state is lane-local between
// barriers, lanes can run on concurrent worker threads and still produce
// byte-identical results for any thread count. The legacy constructor
// (external simulator) builds a single lane spanning all regions and behaves
// exactly like the pre-sharding network.
//
// Sub-sharding (scale mode): regions larger than `sub_shard_members` are
// additionally split into consecutive-member chunks, each chunk its own
// lane. Intra-region traffic between chunks crosses lanes at intra_rtt/2,
// so splitting a region lowers the safe epoch window to that delay — worth
// it when one giant region would otherwise serialize the whole run on a
// single lane. Off (0, the default): one lane per region, byte-identical to
// the pre-sub-sharding layout.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "net/loss_model.h"
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
  std::uint64_t dropped = 0;     // lost to the loss model
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
  /// Legacy single-queue mode: every region shares `simulator`. Behaviour is
  /// identical to the pre-sharding network (one lane, one RNG stream).
  SimNetwork(sim::Simulator& simulator, const Topology& topology,
             RandomEngine rng);

  /// Sharded mode: one privately-owned simulator lane per region (collapsed
  /// to a single lane when that would leave fewer than two lanes or a
  /// non-positive lookahead for barriers). Lane 0 consumes `rng`'s own
  /// stream; lane l>0 uses rng.fork(kLaneDomain+l). `sub_shard_members`,
  /// when nonzero, splits regions larger than it into chunk lanes of that
  /// many consecutive members (see the sub-sharding note above).
  SimNetwork(const Topology& topology, RandomEngine rng,
             std::size_t sub_shard_members = 0);

  /// Register/deregister the endpoint that receives messages for `m`.
  /// Messages to unattached members are silently dropped (crashed/left).
  /// Must not be called while lanes are running (script time only).
  void attach(MemberId m, MessageHandler* handler);
  void detach(MemberId m);
  bool attached(MemberId m) const;

  /// Loss model applied to unicast and regional multicast (control plane and
  /// repairs). Each lane receives its own clone() so stateful models never
  /// share a chain across lanes. The paper's experiments use NoLoss here.
  void set_control_loss(std::unique_ptr<LossModel> model);

  /// Per-link loss overrides (fault injection). Each lane receives its own
  /// clone() of `table`, like set_control_loss, so stateful overrides stay
  /// lane-local. An empty table restores uniform behaviour. Must not be
  /// called while lanes are running (script time only).
  void set_link_loss(const LinkLossTable& table);

  /// Sever all traffic between members of different `groups` (fault
  /// injection). Members listed in no group form one implicit extra group,
  /// connected among themselves. Severed sends are counted (TrafficStats::
  /// severed) but consume no loss-model randomness, and packets already in
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

  /// Multiply each latency by U(1, 1+fraction). 0 disables jitter.
  void set_latency_jitter(double fraction) { jitter_fraction_ = fraction; }

  /// Deterministic drop schedule for the initial dissemination: when set,
  /// ip_multicast asks `fn(msg, receiver)` instead of drawing from the loss
  /// model / Bernoulli rate, consuming no RNG. This lets an experiment run
  /// the *same* loss schedule on the simulator and on the real UDP
  /// transport (transport-parity recovery curves). Unset (default) leaves
  /// every draw bit-identical to the pre-hook behaviour.
  using DataDropFn =
      std::function<bool(const proto::Message& msg, MemberId to)>;
  void set_data_drop_fn(DataDropFn fn) { data_drop_fn_ = std::move(fn); }

  /// Encode+decode every message in flight (wire-format fidelity checks).
  void set_codec_roundtrip(bool on) { codec_roundtrip_ = on; }

  void unicast(MemberId from, MemberId to, proto::Message msg);
  void multicast_region(MemberId from, proto::Message msg);

  /// Initial dissemination with independent per-receiver loss, to every
  /// member of the group except the sender.
  void ip_multicast(MemberId from, const proto::Message& msg,
                    double per_receiver_loss);

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
    std::unique_ptr<sim::Simulator> owned_sim;  // null in legacy mode
    sim::Simulator* sim = nullptr;
    RandomEngine rng;
    std::unique_ptr<LossModel> loss;
    LinkLossTable links;  // per-link overrides (empty: uniform loss)
    TrafficStats stats;
    std::vector<CrossLanePacket> outbox;

    explicit Lane(RandomEngine r) : rng(std::move(r)), loss(make_no_loss()) {}
  };

  Prepared prepare(proto::Message msg);
  void transmit(MemberId from, MemberId to, const Prepared& p,
                bool apply_loss);
  void dispatch(Lane& src, std::size_t dst_lane, MemberId from, MemberId to,
                MessagePtr msg);
  Duration delay(Lane& src, MemberId from, MemberId to);
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
  double jitter_fraction_ = 0.0;
  bool codec_roundtrip_ = false;
  DataDropFn data_drop_fn_;
};

}  // namespace rrmp::net

// Cluster: a full RRMP deployment on the discrete-event simulator — the
// scenario surface shared by tests, benches and examples.
//
// Builds topology, directory, network, one SimHost + Endpoint per member,
// wires every endpoint to its region's RecordingSink, and offers scenario
// controls: scripted initial-multicast outcomes (who holds a message at
// t=0, as in Figures 6/7), graceful leaves, crashes, rejoins, and buffer
// state preparation for the search experiments (Figures 8/9).
//
// Sharded execution model: the network partitions the cluster into one lane
// per region (see net::SimNetwork), each with a private event queue, RNG
// fork and metrics sink. run_for()/run_until_quiet() advance the lanes in
// epoch windows no longer than the cross-region lookahead (the minimum
// inter-region one-way latency); at each window's end barrier the lanes'
// cross-region outboxes are exchanged in fixed lane order and due scripted
// events run single-threaded. Within a window lanes share no mutable state,
// so ClusterConfig::shards only chooses how many worker threads execute the
// per-window lane loop — results are byte-identical for every shard count.
// Single-region clusters collapse to one lane and behave exactly like the
// pre-sharding harness.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "buffer/factory.h"
#include "common/arena.h"
#include "harness/shard_pool.h"
#include "harness/sim_host.h"
#include "membership/directory.h"
#include "net/sim_network.h"
#include "rrmp/endpoint.h"
#include "rrmp/metrics.h"
#include "sim/simulator.h"

namespace rrmp::harness {

struct ClusterConfig {
  /// region_sizes[i] members in region i; region 0 is the root, others
  /// parent on `parents` (default: all on region 0).
  std::vector<std::size_t> region_sizes = {16};
  std::vector<RegionId> parents;

  Duration intra_rtt = Duration::millis(10);
  Duration inter_one_way = Duration::millis(50);

  Config protocol;
  /// Self-describing buffer policy selection + knobs (Buffer API v2). The
  /// per-member budget rides in protocol.buffer_budget.
  buffer::PolicySpec policy = buffer::TwoPhaseParams{};

  std::uint64_t seed = 1;
  /// Per-receiver loss of the sender's initial IP multicast.
  double data_loss = 0.0;
  /// Loss applied to unicast + regional multicast (0 in the paper's runs).
  double control_loss = 0.0;
  /// Latency jitter fraction (latency *= U(1, 1+jitter)).
  double jitter = 0.0;
  /// Encode+decode every in-flight message (wire-format fidelity).
  bool codec_roundtrip = false;

  /// Worker threads for the per-epoch region loop. 1 = sequential (default),
  /// 0 = hardware concurrency; always clamped to the region-lane count.
  /// Determinism contract: results are byte-identical for every value.
  std::size_t shards = 1;

  /// Sub-shard regions larger than this many members into consecutive-member
  /// chunk lanes (see net::SimNetwork); 0 (default) keeps one lane per
  /// region and is bit-identical to the pre-sub-sharding harness.
  std::size_t sub_shard_members = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  net::SimNetwork& network() { return *network_; }
  const net::Topology& topology() const { return topology_; }
  membership::Directory& directory() { return directory_; }
  Endpoint& endpoint(MemberId m) { return *endpoints_.at(m); }
  const Endpoint& endpoint(MemberId m) const { return *endpoints_.at(m); }
  SimHost& host(MemberId m) { return *hosts_.at(m); }
  std::size_t size() const { return endpoints_.size(); }
  const ClusterConfig& config() const { return config_; }

  /// Metrics folded across all lane sinks (see RecordingSink::merge). On
  /// multi-lane clusters every call merges afresh into a *snapshot* —
  /// re-call it after each run rather than holding the reference across
  /// runs. Single-lane clusters return the sole live lane sink directly.
  /// Const: mutating the merged snapshot (e.g. clear()) could never reach
  /// the underlying lane sinks.
  const RecordingSink& metrics();

  // ---- time control ----------------------------------------------------

  /// Global simulation clock: the last epoch barrier every lane has reached.
  TimePoint now() const;

  void run_for(Duration d);
  /// Run until every lane queue drains or `cap` of simulated time elapses.
  void run_until_quiet(Duration cap);

  /// Scripted cluster-level event: `fn` runs single-threaded at the epoch
  /// barrier at time `t` (clamped to now()), after all lanes have reached
  /// `t` and cross-region traffic due by `t` has been exchanged. Scripts may
  /// touch any member, region or the cluster itself (leave/crash/rejoin,
  /// injections, sampling) — the barrier guarantees no lane is running.
  void schedule_script(TimePoint t, sim::Callback fn);
  void schedule_script_after(Duration d, sim::Callback fn) {
    schedule_script(now() + d, std::move(fn));
  }

  /// Worker threads actually backing the epoch loop (after clamping).
  std::size_t shard_count() const { return pool_->thread_count(); }
  /// Region lanes (1 for single-region clusters).
  std::size_t lane_count() const { return network_->lane_count(); }
  /// Total simulator events fired across all lanes (determinism witness).
  std::uint64_t events_fired() const { return network_->events_fired(); }

  // ---- scenario control --------------------------------------------------

  /// Scripted initial-multicast outcome: `holders` receive Data{source,seq}
  /// now; every other alive member of `notified` regions receives a Session
  /// announcing seq, so they detect the loss immediately (Figures 6/7).
  /// Returns the message id.
  MessageId inject(MemberId source, std::uint64_t seq,
                   std::span<const MemberId> holders,
                   std::size_t payload_bytes = 64);

  /// Deliver Data{source,seq} to exactly `holders`, notifying nobody else.
  MessageId inject_data_to(MemberId source, std::uint64_t seq,
                           std::span<const MemberId> holders,
                           std::size_t payload_bytes = 64);

  /// Deliver Session{source,seq} to exactly `members` (loss notification).
  void inject_session_to(MemberId source, std::uint64_t seq,
                         std::span<const MemberId> members);

  /// Deliver a remote request for `id` (from `requester`) to `target` now.
  void inject_remote_request(MemberId target, const MessageId& id,
                             MemberId requester);

  /// Force `member`'s buffered copy of `id` into the long-term phase.
  void force_long_term(MemberId member, const MessageId& id);
  /// Force-discard `member`'s buffered copy of `id`.
  void force_discard(MemberId member, const MessageId& id);

  void leave(MemberId m);   // graceful: handoff, then detach
  void crash(MemberId m);   // no handoff
  void rejoin(MemberId m);  // fresh endpoint for a previously-removed member

  // ---- fault injection ---------------------------------------------------
  //
  // Everything here is inert until first used: a run that never partitions
  // and never installs loss overrides is bit-identical to one built before
  // these primitives existed. All of it must run at script barriers (use
  // schedule_script, or call before run_for).

  /// Sever all traffic between the listed member groups (members in no
  /// group form one implicit extra group, connected among themselves).
  /// Packets already in flight still deliver; membership views are
  /// untouched — a partitioned peer is alive-but-unreachable, which is
  /// exactly the state the credit/digest hardening exists for. Bumps the
  /// connectivity generation and notifies every alive endpoint.
  void partition(const std::vector<std::vector<MemberId>>& groups);
  /// Convenience: partition whole regions instead of member sets.
  void partition_regions(const std::vector<std::vector<RegionId>>& groups);
  /// Restore full connectivity. Bumps the generation again, so credit
  /// state from *either* side of the former partition is stale afterwards.
  void heal();
  bool partitioned() const { return network_->partitioned(); }

  /// Loss-rate overrides, forwarded to the network (applied immediately). A
  /// rejoiner sends at the rate of the last set_data_loss (or
  /// ClusterConfig::data_loss); a per-sender rate dies with its member.
  void set_data_loss(double rate);                   // every sender
  void set_member_data_loss(MemberId m, double rate);  // one sender
  void set_control_loss(double rate);
  /// Per-link overrides on the control plane + repair path: every link
  /// *into* each of `members` drops with `rate` (a lossy edge receiver).
  void set_lossy_members(const std::vector<MemberId>& members, double rate);
  /// One directed link src -> dst.
  void set_link_loss(MemberId src, MemberId dst, double rate);

  // ---- queries -----------------------------------------------------------

  std::size_t count_received(const MessageId& id) const;
  std::size_t count_buffered(const MessageId& id) const;
  std::size_t count_long_term(const MessageId& id) const;
  /// True iff every *alive* member has received `id`.
  bool all_received(const MessageId& id) const;
  std::vector<MemberId> region_members(RegionId r) const;
  /// Sum of buffered message counts over alive members.
  std::size_t total_buffered() const;

 private:
  void spawn_member(MemberId m);
  /// Tell every alive endpoint the view changed (leave/crash/rejoin), so
  /// flow-control credit state reconciles at churn time, not at the next
  /// credit tick. Runs at a script barrier: deterministic for any shards.
  void notify_view_change();
  /// Tell every alive endpoint which region peers an active partition
  /// severs it from, with the current connectivity generation.
  void notify_partition_change();
  /// Advance every lane to `t` (worker pool), exchange cross-region traffic,
  /// and settle arrivals landing exactly at `t`.
  void advance_lanes_to(TimePoint t);

  ClusterConfig config_;
  net::Topology topology_;
  membership::Directory directory_;
  std::unique_ptr<net::SimNetwork> network_;
  RandomEngine master_rng_;
  std::unique_ptr<ShardPool> pool_;
  // One sink per lane (endpoints hold pointers: sized once, never resized),
  // plus the merged view handed out by metrics().
  std::vector<RecordingSink> lane_sinks_;
  RecordingSink merged_metrics_;
  // Hosts and endpoints live in the arena: at 10^6 members, two million
  // individual heap allocations dominate construction/teardown, and arena
  // locality keeps a region's endpoint state on neighbouring pages. Rejoin
  // replaces the objects (destroy + create); the dead slots leak until the
  // cluster dies, bounded by churn volume.
  common::Arena arena_;
  std::vector<SimHost*> hosts_;
  std::vector<Endpoint*> endpoints_;
  std::vector<bool> removed_;
  // Multi-lane scripts, fired at barriers in (time, scheduling) order. The
  // queue's clock is run up to clock_ after every barrier, so a script
  // scheduled in the past is clamped to the current barrier.
  sim::Simulator scripts_;
  TimePoint clock_;  // last barrier every lane has reached
  // Connectivity generation: 0 until the first partition, then bumped by
  // every partition() / heal().
  std::uint64_t fault_generation_ = 0;
};

}  // namespace rrmp::harness

#include "harness/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace rrmp::harness {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      topology_(net::make_hierarchy(
          config_.region_sizes, config_.intra_rtt, config_.inter_one_way,
          config_.parents.empty() ? nullptr : &config_.parents)),
      directory_(topology_),
      master_rng_(config_.seed) {
  network_ = std::make_unique<net::SimNetwork>(
      topology_, master_rng_.fork(0xD00D), config_.sub_shard_members);
  network_->set_control_loss(config_.control_loss);
  network_->set_latency_jitter(config_.jitter);
  network_->set_codec_roundtrip(config_.codec_roundtrip);
  pool_ = std::make_unique<ShardPool>(
      ShardPool::resolve(config_.shards, network_->lane_count()));
  lane_sinks_.resize(network_->lane_count());

  std::size_t n = topology_.member_count();
  hosts_.assign(n, nullptr);
  endpoints_.assign(n, nullptr);
  removed_.assign(n, false);
  for (MemberId m = 0; m < n; ++m) spawn_member(m);
}

Cluster::~Cluster() {
  // Halt endpoints before the simulators die so no timer callback can touch
  // a destroyed endpoint during teardown, then run destructors explicitly —
  // arena objects are not owned by smart pointers.
  for (Endpoint* ep : endpoints_) {
    if (ep) ep->halt();
  }
  for (Endpoint* ep : endpoints_) arena_.destroy(ep);
  for (SimHost* h : hosts_) arena_.destroy(h);
}

void Cluster::spawn_member(MemberId m) {
  // Rejoin path: retire the dead member's old objects before creating the
  // replacements (initial construction finds nullptrs here).
  arena_.destroy(endpoints_[m]);
  arena_.destroy(hosts_[m]);
  hosts_[m] = arena_.create<SimHost>(m, *network_, directory_,
                                     master_rng_.fork(m + 1));
  // A (re)joining member sends at the cluster-wide data loss in force now;
  // a rate scoped to its previous incarnation does not carry over.
  network_->set_data_loss(m, config_.data_loss);
  auto policy = buffer::make_policy(config_.policy);
  endpoints_[m] = arena_.create<Endpoint>(
      *hosts_[m], config_.protocol, std::move(policy),
      lane_sinks_[network_->lane_of(m)]);
  Endpoint* ep = endpoints_[m];
  hosts_[m]->set_receiver(
      [ep](const proto::Message& msg, MemberId from) {
        ep->handle_message(msg, from);
      });
  network_->attach(m, hosts_[m]);
  // A member rejoining after the first partition/heal starts with a fresh
  // endpoint: hand it the current connectivity generation (and severed
  // peers, if a partition is active) or it would reject every current-
  // generation CreditAck/BufferDigest. Never fires in fault-free runs.
  if (fault_generation_ > 0) {
    std::vector<MemberId> unreachable;
    for (MemberId peer : topology_.members_of(topology_.region_of(m))) {
      if (peer != m && !removed_[peer] && network_->severed(m, peer)) {
        unreachable.push_back(peer);
      }
    }
    endpoints_[m]->on_partition_change(std::move(unreachable),
                                       fault_generation_);
  }
}

const RecordingSink& Cluster::metrics() {
  if (lane_sinks_.size() == 1) return lane_sinks_[0];
  std::vector<const RecordingSink*> sinks;
  sinks.reserve(lane_sinks_.size());
  for (const RecordingSink& s : lane_sinks_) sinks.push_back(&s);
  merged_metrics_ = RecordingSink::merge(sinks);
  return merged_metrics_;
}

// ---- time control ---------------------------------------------------------

TimePoint Cluster::now() const {
  if (network_->lane_count() == 1) return network_->lane_sim(0).now();
  return clock_;
}

void Cluster::schedule_script(TimePoint t, sim::Callback fn) {
  if (network_->lane_count() == 1) {
    // Single lane: scripts interleave with protocol events on the one queue,
    // exactly like the pre-sharding harness.
    network_->lane_sim(0).schedule_at(t, std::move(fn));
    return;
  }
  scripts_.schedule_at(t, std::move(fn));
}

void Cluster::advance_lanes_to(TimePoint t) {
  auto run_lane = [this, t](std::size_t lane) {
    network_->lane_sim(lane).run_until(t);
  };
  pool_->run(network_->lane_count(), run_lane);
  if (network_->exchange() > 0) {
    // Settle cross-region arrivals landing exactly at the barrier; anything
    // they send in turn is at least one lookahead in the future, so the
    // second exchange only queues strictly-later deliveries.
    pool_->run(network_->lane_count(), run_lane);
    network_->exchange();
  }
  clock_ = t;
}

void Cluster::run_for(Duration d) {
  if (network_->lane_count() == 1) {
    sim::Simulator& s = network_->lane_sim(0);
    s.run_until(s.now() + d);
    return;
  }
  const Duration lookahead = network_->lookahead();
  const TimePoint t_end = clock_ + d;
  while (clock_ < t_end || scripts_.next_event_time() <= t_end) {
    // Cross-lane packets sent outside a window (scripts, top-level
    // injections) sit in lane outboxes without a queue entry; move them
    // into destination queues before computing the next window.
    network_->exchange();
    TimePoint tn =
        std::min(network_->next_event_time(), scripts_.next_event_time());
    TimePoint e;
    if (tn >= t_end) {
      // Nothing fires strictly before t_end: one jump instead of stepping
      // through empty lookahead windows. Safe because a window with no
      // events before its end cannot send anything that lands inside it.
      e = t_end;
    } else {
      e = std::min(std::max(tn, clock_) + lookahead, t_end);
      e = std::min(e, scripts_.next_event_time());
    }
    advance_lanes_to(e);
    scripts_.run_until(clock_);
    if (clock_ >= t_end && scripts_.next_event_time() > t_end) break;
  }
  network_->exchange();  // scripts at t_end must not strand packets
}

void Cluster::run_until_quiet(Duration cap) {
  if (network_->lane_count() == 1) {
    sim::Simulator& s = network_->lane_sim(0);
    TimePoint horizon = s.now() + cap;
    while (s.pending_count() > 0 && s.now() <= horizon) s.step();
    return;
  }
  const Duration lookahead = network_->lookahead();
  const TimePoint horizon = clock_ + cap;
  for (;;) {
    // As in run_for: make outbox packets visible to next_event_time() so a
    // cluster whose only remaining activity is an un-exchanged cross-region
    // packet is not mistaken for quiescent.
    network_->exchange();
    TimePoint tn =
        std::min(network_->next_event_time(), scripts_.next_event_time());
    if (tn == TimePoint::max() || tn > horizon) break;
    TimePoint e = std::min(std::max(tn, clock_) + lookahead, horizon);
    e = std::min(e, scripts_.next_event_time());
    advance_lanes_to(e);
    scripts_.run_until(clock_);
  }
}

// ---- scenario control -----------------------------------------------------

MessageId Cluster::inject(MemberId source, std::uint64_t seq,
                          std::span<const MemberId> holders,
                          std::size_t payload_bytes) {
  MessageId id{source, seq};
  proto::Data data{id, std::vector<std::uint8_t>(payload_bytes, 0xAB)};
  std::vector<bool> is_holder(size(), false);
  for (MemberId h : holders) is_holder.at(h) = true;
  proto::Session session{source, seq};
  for (MemberId m = 0; m < size(); ++m) {
    if (removed_[m]) continue;
    if (is_holder[m]) {
      endpoints_[m]->handle_message(proto::Message{data}, source);
    } else {
      endpoints_[m]->handle_message(proto::Message{session}, source);
    }
  }
  return id;
}

MessageId Cluster::inject_data_to(MemberId source, std::uint64_t seq,
                                  std::span<const MemberId> holders,
                                  std::size_t payload_bytes) {
  MessageId id{source, seq};
  proto::Data data{id, std::vector<std::uint8_t>(payload_bytes, 0xAB)};
  for (MemberId m : holders) {
    if (!removed_.at(m)) {
      endpoints_[m]->handle_message(proto::Message{data}, source);
    }
  }
  return id;
}

void Cluster::inject_session_to(MemberId source, std::uint64_t seq,
                                std::span<const MemberId> members) {
  proto::Session session{source, seq};
  for (MemberId m : members) {
    if (!removed_.at(m)) {
      endpoints_[m]->handle_message(proto::Message{session}, source);
    }
  }
}

void Cluster::inject_remote_request(MemberId target, const MessageId& id,
                                    MemberId requester) {
  endpoints_.at(target)->handle_message(
      proto::Message{proto::RemoteRequest{id, requester}}, requester);
}

void Cluster::force_long_term(MemberId member, const MessageId& id) {
  Endpoint& ep = *endpoints_.at(member);
  std::optional<proto::Data> d = ep.buffer().get(id);
  if (!d) throw std::logic_error("force_long_term: message not buffered");
  ep.buffer().accept_handoff(*d);  // upgrades an existing entry to long-term
}

void Cluster::force_discard(MemberId member, const MessageId& id) {
  endpoints_.at(member)->buffer().force_discard(id);
}

void Cluster::leave(MemberId m) {
  if (removed_.at(m)) return;
  endpoints_[m]->leave();
  network_->detach(m);
  directory_.mark_left(m);
  removed_[m] = true;
  notify_view_change();
}

void Cluster::crash(MemberId m) {
  if (removed_.at(m)) return;
  endpoints_[m]->halt();
  network_->detach(m);
  directory_.mark_failed(m);
  removed_[m] = true;
  notify_view_change();
}

void Cluster::rejoin(MemberId m) {
  if (!removed_.at(m)) return;
  directory_.mark_joined(m);
  removed_[m] = false;
  spawn_member(m);
  notify_view_change();
}

// ---- fault injection ------------------------------------------------------

void Cluster::partition(const std::vector<std::vector<MemberId>>& groups) {
  network_->set_partition(groups);
  ++fault_generation_;
  notify_partition_change();
}

void Cluster::partition_regions(
    const std::vector<std::vector<RegionId>>& groups) {
  std::vector<std::vector<MemberId>> member_groups;
  member_groups.reserve(groups.size());
  for (const std::vector<RegionId>& regions : groups) {
    std::vector<MemberId>& g = member_groups.emplace_back();
    for (RegionId r : regions) {
      const std::vector<MemberId>& members = topology_.members_of(r);
      g.insert(g.end(), members.begin(), members.end());
    }
  }
  partition(member_groups);
}

void Cluster::heal() {
  if (!network_->partitioned()) return;
  network_->clear_partition();
  ++fault_generation_;
  notify_partition_change();
}

void Cluster::notify_partition_change() {
  // Like notify_view_change: runs at a script barrier, fixed ascending
  // order, so everything the reconciliation transmits is deterministic at
  // every shard count. Flow control is regional, so only region peers can
  // be credit-relevant unreachables.
  for (MemberId m = 0; m < size(); ++m) {
    if (removed_[m]) continue;
    std::vector<MemberId> unreachable;
    for (MemberId peer : topology_.members_of(topology_.region_of(m))) {
      if (peer != m && !removed_[peer] && network_->severed(m, peer)) {
        unreachable.push_back(peer);
      }
    }
    endpoints_[m]->on_partition_change(std::move(unreachable),
                                       fault_generation_);
  }
}

void Cluster::set_data_loss(double rate) {
  config_.data_loss = rate;  // future rejoins inherit the new rate
  for (MemberId m = 0; m < size(); ++m) network_->set_data_loss(m, rate);
}

void Cluster::set_member_data_loss(MemberId m, double rate) {
  network_->set_data_loss(m, rate);
}

void Cluster::set_control_loss(double rate) {
  network_->set_control_loss(rate);
}

void Cluster::set_lossy_members(const std::vector<MemberId>& members,
                                double rate) {
  for (MemberId m : members) network_->set_member_loss(m, rate);
}

void Cluster::set_link_loss(MemberId src, MemberId dst, double rate) {
  network_->set_link_loss(src, dst, rate);
}

void Cluster::notify_view_change() {
  // Membership changes apply at script barriers (single-threaded, fixed
  // ascending order), so the eager flow reconciliation — and anything it
  // transmits — is deterministic at every shard count.
  for (MemberId m = 0; m < size(); ++m) {
    if (!removed_[m]) endpoints_[m]->on_view_change();
  }
}

// ---- queries --------------------------------------------------------------

std::size_t Cluster::count_received(const MessageId& id) const {
  std::size_t n = 0;
  for (MemberId m = 0; m < size(); ++m) {
    if (!removed_[m] && endpoints_[m]->has_received(id)) ++n;
  }
  return n;
}

std::size_t Cluster::count_buffered(const MessageId& id) const {
  std::size_t n = 0;
  for (MemberId m = 0; m < size(); ++m) {
    if (!removed_[m] && endpoints_[m]->buffer().has(id)) ++n;
  }
  return n;
}

std::size_t Cluster::count_long_term(const MessageId& id) const {
  std::size_t n = 0;
  for (MemberId m = 0; m < size(); ++m) {
    if (!removed_[m] && endpoints_[m]->buffer().is_long_term(id)) ++n;
  }
  return n;
}

bool Cluster::all_received(const MessageId& id) const {
  for (MemberId m = 0; m < size(); ++m) {
    if (!removed_[m] && !endpoints_[m]->has_received(id)) return false;
  }
  return true;
}

std::vector<MemberId> Cluster::region_members(RegionId r) const {
  return topology_.members_of(r);
}

std::size_t Cluster::total_buffered() const {
  std::size_t n = 0;
  for (MemberId m = 0; m < size(); ++m) {
    if (!removed_[m]) n += endpoints_[m]->buffer().count();
  }
  return n;
}

}  // namespace rrmp::harness

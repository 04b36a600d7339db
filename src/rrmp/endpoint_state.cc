// Endpoint's state plane (see endpoint.h): periodic ticks, their handlers,
// flow-control peer glue, view and partition hooks.
#include "rrmp/endpoint.h"

#include <algorithm>

namespace rrmp {
namespace {

constexpr std::size_t kHistoryBitmapWords = 16;

}  // namespace

// ------------------------------------------------------------ Session ----

void Endpoint::session_tick() {
  session_timer_ = kNoTimer;
  if (flow_.send_seq() == 0) return;
  proto::Session s{self(), flow_.send_seq()};
  if (cfg_.flow.enabled && cfg_.flow.piggyback &&
      host_.local_view().size() > 1) {
    s.cursors = cursor_snapshot();
    advertised_cursors_ = s.cursors;
    advertised_any_ = true;
  }
  host_.ip_multicast(proto::Message{std::move(s)});
  // Variable heartbeat (see kMaxSessionBackoff). A sender stalled on credit
  // is not idle: its Sessions expose the frames at the window's edge, and
  // the acks for those frames are what free its credit.
  bool idle = flow_.send_seq() == session_seq_ && queued_sends() == 0;
  session_seq_ = flow_.send_seq();
  session_gap_ = idle ? std::min(session_gap_ * 2,
                                 cfg_.session_interval * kMaxSessionBackoff)
                      : cfg_.session_interval;
  session_timer_ = host_.schedule(session_gap_, [this] { session_tick(); });
}

// ------------------------------------------------------- flow control ----

void Endpoint::credit_tick() {
  credit_timer_ = kNoTimer;
  const membership::RegionView& view = host_.local_view();
  // A departed peer's last cursor must not wedge the window floor, and its
  // occupancy must not pin phantom back-pressure. (on_view_change does this
  // eagerly on hosts that report view changes; the tick remains the
  // transport-independent fallback.)
  flow_.sync_peers(flow_peers());
  if (view.size() > 1) {
    // Only senders read cursors: each region peer we have received frames
    // from gets its own cursor, unicast, and a member that knows no sender
    // in its region has nothing to send.
    std::vector<proto::ReceiveCursor> cursors = cursor_snapshot();
    auto is_credit_peer = [this, &view](const proto::ReceiveCursor& c) {
      return view.contains(c.source) && !flow_unreachable(c.source);
    };
    if (std::any_of(cursors.begin(), cursors.end(), is_credit_peer)) {
      // With piggybacking, the periodic acks are a fallback for quiet
      // receivers: suppress them while our piggybacked frames already carry
      // exactly these cursors, but refresh every few ticks anyway — the
      // frames carrying the last advertisement may have been lost.
      bool suppress = cfg_.flow.piggyback && advertised_any_ &&
                      cursors == advertised_cursors_ &&
                      quiet_ticks_ + 1 < kQuietAckRefreshTicks;
      if (suppress) {
        ++quiet_ticks_;
        metrics_.on_credit_ack_suppressed(self(), host_.now());
      } else {
        advertised_any_ = true;
        quiet_ticks_ = 0;
        metrics_.on_credit_ack_sent(self(), host_.now());
        for (const proto::ReceiveCursor& c : cursors) {
          if (!is_credit_peer(c)) continue;
          host_.send(c.source,
                     proto::Message{proto::CreditAck{
                         self(), store_->bytes(), cfg_.buffer_budget.max_bytes,
                         {c}, view_gen_}});
        }
        advertised_cursors_ = std::move(cursors);
      }
    }
    // A flow-controlled sender keeps its own unacknowledged frames alive:
    // touching them each tick holds them active (never idle-discarded,
    // last in LRU eviction order), so a receiver stuck on a lost frame can
    // always repair from the source and its cursor — and with it our
    // window — can always advance. Without this, one frame evicted
    // region-wide wedges the window forever.
    for (std::uint64_t s = flow_.window_floor() + 1; s <= flow_.send_seq();
         ++s) {
      store_->on_request_seen(MessageId{self(), s});
    }
    // Frames the whole region has acknowledged need no retransmission copy.
    while (!window_.empty() && window_.front().id.seq <= flow_.window_floor()) {
      window_.pop_front();
    }
    // Sender-driven retransmission: when the floor sits still for several
    // ticks with frames outstanding, some receiver is stuck on the frame
    // just past it — usually because its own recovery gave up while copies
    // were scarce (the shared buffer may have evicted every copy, including
    // ours). window_ still holds it: re-multicast; duplicates are ignored
    // and the stuck cursors advance. The wedging frame is the front one:
    // every peer is bound from our first frame and every joiner at the
    // floor, so the floor never falls below the oldest frame kept. The
    // range check stays for a peer that reports before we learn it joined.
    if (flow_.outstanding() > 0 && flow_.window_floor() == stall_floor_) {
      if (++stall_ticks_ >= kStallRetransmitTicks) {
        stall_ticks_ = 0;
        if (flow_.release_stalled_peers()) {
          // Every floor-holding cursor was a seeded binding ahead of its
          // peer's genuine reports: the peer is backfilling history below
          // the floor (a rejoined member whose pre-crash state was
          // evicted region-wide may never finish), so re-multicasting
          // the frame at the floor could not unwedge it. Not a loss
          // signal — no receiver missed this frame.
          metrics_.on_flow_stall_release(self(), host_.now());
          drain_window();
        } else if (!window_.empty() &&
                   window_.front().id.seq <= stall_floor_ + 1) {
          const proto::Data& wedged =
              window_[stall_floor_ + 1 - window_.front().id.seq];
          metrics_.on_flow_stall_remcast(self(), wedged.id, host_.now());
          host_.ip_multicast(proto::Message{wedged});
          // A stall is the AIMD loss signal: some receiver missed a frame
          // and its recovery did not close the gap in time.
          flow_.on_loss();
          aimd_loss_in_round_ = true;
        }
      }
    } else {
      stall_floor_ = flow_.window_floor();
      stall_ticks_ = 0;
    }
  }
  // AIMD probe round: one additive step per clean round. The round must
  // outlast the slowest peer's feedback loop, so it is the larger of the
  // ack interval and the measured RTT (the topology estimate until
  // measure_rtt has samples).
  Duration rtt = host_.rtt_estimate(self());
  if (cfg_.measure_rtt) rtt = rtt_.max_srtt(rtt);
  Duration round = std::max(cfg_.flow.ack_interval, rtt);
  if (host_.now() - aimd_round_start_ >= round) {
    if (!aimd_loss_in_round_ && flow_.window_floor() > aimd_round_floor_) {
      flow_.on_clean_round();
    }
    aimd_round_start_ = host_.now();
    aimd_round_floor_ = flow_.window_floor();
    aimd_loss_in_round_ = false;
  }
  // Pruning departed peers (or the view shrinking to just us) may have
  // freed credit even without new acks.
  drain_window();
  credit_timer_ =
      host_.schedule(cfg_.flow.ack_interval, [this] { credit_tick(); });
}

void Endpoint::handle_piggyback(
    const std::vector<proto::ReceiveCursor>& cursors, MemberId from) {
  if (!cfg_.flow.enabled) return;
  if (from == self()) return;  // the multicast loops back
  // Flow control is regional: cursors piggybacked on a *global* Data
  // multicast also reach other regions, where the sender is not a credit
  // peer. Same guard as a departed-member CreditAck.
  if (!host_.local_view().contains(from)) return;
  // A frame in flight when a partition formed can still arrive from a peer
  // now severed from us; installing its cursor would re-wedge the floor
  // on_partition_change just released.
  if (flow_unreachable(from)) return;
  // Same semantics as a CreditAck cursor list: every advertising region
  // peer bounds our window, absent cursor = nothing received yet (0).
  std::uint64_t cursor = 0;
  for (const proto::ReceiveCursor& c : cursors) {
    if (c.source == self()) cursor = c.cursor;
  }
  flow_.on_cursor(from, cursor);
  drain_window();
}

void Endpoint::handle_credit_ack(const proto::CreditAck& a, MemberId from) {
  (void)from;
  if (!cfg_.flow.enabled) return;
  if (a.member == self()) return;  // a row for ourselves would pin the floor
  // An ack can race its sender's departure (in flight when the view
  // dropped the member). Installing its cursor would re-wedge the window
  // floor that sync_peers just released, until the next sync —
  // departed members get no credit voice.
  if (!host_.local_view().contains(a.member)) return;
  // A stale-generation ack (sent pre-partition, delivered post-heal) must
  // not regress our view of the peer's reported cursor: the peer re-seeded
  // at the current floor at heal, and only its post-heal acks — stamped
  // with the current generation — speak for it again.
  if (a.view_gen != view_gen_) return;
  // During the partition itself, severed peers get no credit voice at all.
  if (flow_unreachable(a.member)) return;
  // The ack carries our cursor alone; an ack without it says nothing
  // received yet (0).
  std::uint64_t cursor = 0;
  for (const proto::ReceiveCursor& c : a.cursors) {
    if (c.source == self()) cursor = c.cursor;
  }
  flow_.on_cursor(a.member, cursor);
  flow_.on_peer_budget(a.member, a.bytes_in_use, a.budget_bytes);
  drain_window();
}

std::vector<proto::ReceiveCursor> Endpoint::cursor_snapshot() const {
  std::vector<proto::ReceiveCursor> cursors;
  for (const auto& [source, tr] : trackers_) {
    if (source == host_.self()) continue;  // a sender grants itself no credit
    cursors.push_back(proto::ReceiveCursor{source, tr.next_expected() - 1});
  }
  return cursors;  // trackers_ is an ordered map: deterministic order
}

const std::vector<MemberId>& Endpoint::flow_peers() const {
  flow_peers_scratch_.clear();
  for (MemberId m : host_.local_view().members()) {
    if (m != self() && !flow_unreachable(m)) flow_peers_scratch_.push_back(m);
  }
  return flow_peers_scratch_;
}

bool Endpoint::flow_unreachable(MemberId m) const {
  return !flow_unreachable_.empty() &&
         std::binary_search(flow_unreachable_.begin(), flow_unreachable_.end(),
                            m);
}

void Endpoint::on_view_change() {
  if (!active_ || !cfg_.flow.enabled) return;
  // Reconcile credit state NOW, not at the next credit tick: a departed
  // slowest peer otherwise wedges every sender's floor for up to one ack
  // interval (and handle_credit_ack's membership check keeps an in-flight
  // stale ack from re-installing it), and a joiner's first ack could drag
  // it back.
  flow_.sync_peers(flow_peers());
  // Dropping the slowest cursor may have freed credit immediately.
  drain_window();
}

void Endpoint::on_partition_change(std::vector<MemberId> unreachable,
                                   std::uint64_t generation) {
  if (!active_) return;
  std::sort(unreachable.begin(), unreachable.end());
  flow_unreachable_ = std::move(unreachable);
  view_gen_ = generation;
  if (!cfg_.flow.enabled) return;
  // Piggyback suppression keys on the advertised cursor set, which a
  // generation bump does not change — force the next credit tick to send
  // fresh, correctly-stamped acks anyway.
  advertised_any_ = false;
  quiet_ticks_ = 0;
  // Partition: release credit bindings to peers we can no longer reach —
  // their frozen cursors must not wedge the window at floor + window for
  // the partition's lifetime. Heal: the other side re-enters flow_peers()
  // and is seeded at the current floor, so its first post-heal acks
  // (stamped with the new generation) cannot drag the floor back through
  // the partition-era stream.
  flow_.sync_peers(flow_peers());
  drain_window();
}

// ------------------------------------------------------- coordination ----

void Endpoint::digest_tick() {
  digest_timer_ = kNoTimer;
  // Departed members must stop counting as replica holders or keepers:
  // prune their advertisements against the current view, bounding the
  // staleness of any dead digest at one period.
  store_->digests().retain(host_.local_view().members());
  // Alive-but-severed members (a partition) survive the view prune; their
  // advertisements age out instead once no refresh arrives for a few
  // periods. A connected peer refreshes every period, so its counter
  // oscillates between 0 and 1 and aging never fires in fault-free runs.
  store_->digests().age();
  // Advertise even when empty: a zero bytes_in_use digest is exactly what
  // makes this member the least-loaded shed target.
  proto::BufferDigest d = store_->build_digest();
  d.view_gen = view_gen_;
  if (cfg_.flow.enabled) d.window_outstanding = flow_.outstanding();
  host_.multicast_region(proto::Message{std::move(d)});
  digest_timer_ = host_.schedule(cfg_.buffer_coordination.digest_interval,
                                 [this] { digest_tick(); });
}

void Endpoint::handle_buffer_digest(const proto::BufferDigest& d,
                                    MemberId from) {
  (void)from;
  if (!cfg_.buffer_coordination.enabled) return;
  if (d.member == self()) return;  // only neighbors count as replicas
  // A digest from the other side of a partition (in flight at the cut, or
  // delivered post-heal after sitting in a queue) describes buffer state we
  // could not reach then and cannot trust now: generations must match.
  if (d.view_gen != view_gen_) return;
  store_->digests().update(d.member, d.bytes_in_use, d.ranges);
  if (cfg_.flow.enabled) {
    // The digest doubles as an occupancy report: a neighbor nearing its
    // budget sheds credit from our window before eviction pressure hits it.
    flow_.on_peer_occupancy(d.member, d.bytes_in_use, d.window_outstanding);
    drain_window();
  }
}

// ---------------------------------------------------------- stability ----

proto::History Endpoint::build_history() const {
  proto::History h;
  h.member = self();
  for (const auto& [source, tr] : trackers_) {
    h.sources.push_back(tr.history(source, kHistoryBitmapWords));
  }
  return h;
}

void Endpoint::history_tick() {
  history_timer_ = kNoTimer;
  proto::History h = build_history();
  if (!h.sources.empty()) {
    // Fold our own report in before multicasting so stable_below counts us.
    for (const proto::SourceHistory& sh : h.sources) {
      stability_.update(self(), sh);
    }
    recompute_stability();
    host_.multicast_region(proto::Message{std::move(h)});
  }
  history_timer_ = host_.schedule(kHistoryInterval, [this] { history_tick(); });
}

void Endpoint::recompute_stability() {
  const std::vector<MemberId>& expected = host_.local_view().members();
  for (const auto& [source, tr] : trackers_) {
    std::uint64_t stable = stability_.stable_below(source, expected);
    if (stable > 0) stability_policy_->mark_stable_below(source, stable);
  }
}

void Endpoint::handle_history(const proto::History& h, MemberId from) {
  if (cfg_.anti_entropy) pull_from_digest(h, from);
  if (stability_policy_ == nullptr) return;
  for (const proto::SourceHistory& sh : h.sources) {
    stability_.update(h.member, sh);
  }
  recompute_stability();
}

}  // namespace rrmp

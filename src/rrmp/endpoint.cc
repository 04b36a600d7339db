#include "rrmp/endpoint.h"

#include <algorithm>
#include <cassert>

#include "buffer/hash_based.h"
#include "common/logging.h"

namespace rrmp {
namespace {

constexpr std::size_t kHistoryBitmapWords = 16;

bool contains(const std::vector<MemberId>& v, MemberId m) {
  return std::find(v.begin(), v.end(), m) != v.end();
}

/// Applied before any member is built from the config, so the BufferStore
/// (whose anti-ping-pong age gate reads digest_interval) and the digest
/// timer can never disagree about the clamped value. A non-positive period
/// would re-arm digest_tick at the same instant forever, wedging the event
/// loop, and would silently disable the store's shed damping.
Config sanitized(Config c) {
  if (c.buffer_coordination.enabled &&
      c.buffer_coordination.digest_interval <= Duration::zero()) {
    c.buffer_coordination.digest_interval = Duration::micros(1);
  }
  c.flow = rrmp::sanitized(c.flow);
  return c;
}

}  // namespace

// ---------------------------------------------------------------- Env ----

TimePoint Endpoint::Env::now() const { return ep_.host_.now(); }

std::uint64_t Endpoint::Env::schedule(Duration d, std::function<void()> fn) {
  return ep_.schedule(d, std::move(fn));
}

void Endpoint::Env::cancel(std::uint64_t timer) { ep_.host_.cancel(timer); }

RandomEngine& Endpoint::Env::rng() { return ep_.host_.rng(); }

std::size_t Endpoint::Env::region_size() const {
  return ep_.host_.local_view().size();
}

const std::vector<MemberId>& Endpoint::Env::region_members() const {
  return ep_.host_.local_view().members();
}

MemberId Endpoint::Env::self() const { return ep_.host_.self(); }

buffer::BudgetState Endpoint::Env::budget() const {
  return ep_.store_->budget_state();
}

// ----------------------------------------------------------- lifecycle ----

Endpoint::Endpoint(IHost& host, Config config,
                   std::unique_ptr<buffer::RetentionPolicy> policy,
                   MetricsSink* metrics)
    : host_(host),
      cfg_(sanitized(std::move(config))),
      env_(*this),
      // cfg_, not config: the store must see the sanitized coordination
      // knobs (cfg_ is declared before store_, so it is built first).
      store_(std::make_unique<buffer::BufferStore>(std::move(policy),
                                                   cfg_.buffer_budget,
                                                   cfg_.buffer_coordination)),
      metrics_(metrics != nullptr ? metrics : &null_sink_),
      // Our own budget doubles as the fallback yardstick for peers that
      // advertise occupancy without a budget (BufferDigest gossip).
      flow_(cfg_.flow, cfg_.buffer_budget.max_bytes) {
  store_->bind(&env_);
  store_->set_observer(
      [this](const MessageId& id, buffer::BufferEvent ev, bool long_term) {
        switch (ev) {
          case buffer::BufferEvent::kStored:
            this->metrics().on_buffer_stored(self(), id, host_.now());
            break;
          case buffer::BufferEvent::kPromotedLongTerm:
            this->metrics().on_promoted_long_term(self(), id, host_.now());
            break;
          case buffer::BufferEvent::kDiscarded:
          case buffer::BufferEvent::kHandedOff:
          case buffer::BufferEvent::kEvicted:
          case buffer::BufferEvent::kShedHandoff:
            this->metrics().on_buffer_discarded(self(), id, host_.now(), long_term);
            break;
        }
      });
  if (store_->policy().needs_history_exchange()) cfg_.history_exchange = true;
  if (cfg_.history_exchange) {
    history_enabled_ = true;
    history_timer_ =
        schedule(cfg_.history_interval, [this] { history_tick(); });
  }
  if (cfg_.anti_entropy) {
    anti_entropy_timer_ =
        schedule(cfg_.anti_entropy_interval, [this] { anti_entropy_tick(); });
  }
  if (cfg_.buffer_coordination.enabled) {
    store_->set_shed_handler([this](const proto::Data& d, MemberId target) {
      if (!active_) return false;
      // The least-loaded neighbor is picked from digest advertisements,
      // which lag the view by up to one period: a member that just left can
      // still look like the best target. A shed to a departed member is a
      // silently lost copy counted as "moved" — fall back to plain eviction
      // (return false) so the accounting stays honest.
      if (!host_.local_view().contains(target)) return false;
      this->metrics().on_handoff_sent(self(), target, 1, host_.now());
      host_.send(target, proto::Message{proto::Shed{self(), d}});
      return true;
    });
    digest_timer_ = schedule(cfg_.buffer_coordination.digest_interval,
                             [this] { digest_tick(); });
  }
  if (cfg_.flow.enabled) {
    flow_view_ = host_.local_view().members();
    aimd_round_start_ = host_.now();
    credit_timer_ = schedule(cfg_.flow.ack_interval, [this] { credit_tick(); });
  }
}

Endpoint::~Endpoint() {
  halt();
  *alive_token_ = false;  // defuse any timer guard still in a queue
}

void Endpoint::halt() {
  if (!active_) return;
  active_ = false;
  cancel(session_timer_);
  cancel(history_timer_);
  cancel(anti_entropy_timer_);
  cancel(digest_timer_);
  cancel(credit_timer_);
  window_.clear();
  for (auto& [id, task] : recoveries_) {
    cancel(task.local_timer);
    cancel(task.remote_timer);
  }
  recoveries_.clear();
  for (auto& [id, task] : searches_) cancel(task.timer);
  searches_.clear();
  for (auto& [id, relay] : pending_relays_) cancel(relay.timer);
  pending_relays_.clear();
  for (auto& [id, reply] : pending_replies_) cancel(reply.timer);
  pending_replies_.clear();
  waiters_.clear();
  if (gossip_fd_) gossip_fd_->stop();
}

void Endpoint::leave() {
  if (!active_) return;
  // Transfer each long-term message to a randomly selected region member
  // (§3.2), batching per target into Handoff messages.
  std::vector<proto::Data> drained = store_->drain_for_handoff();
  std::map<MemberId, proto::Handoff> batches;
  for (proto::Data& d : drained) {
    MemberId target = host_.local_view().pick_random(host_.rng(), self());
    if (target == kInvalidMember) break;  // nobody left to inherit
    batches[target].messages.push_back(std::move(d));
  }
  for (auto& [target, handoff] : batches) {
    metrics().on_handoff_sent(self(), target, handoff.messages.size(),
                              host_.now());
    host_.send(target, proto::Message{std::move(handoff)});
  }
  halt();
}

void Endpoint::enable_gossip_fd(GossipConfig config,
                                std::function<void(MemberId, bool)> on_suspect) {
  gossip_fd_ = std::make_unique<GossipFailureDetector>(host_, config,
                                                       std::move(on_suspect));
  gossip_fd_->start();
}

// ----------------------------------------------------------- app API ----

MessageId Endpoint::multicast(std::vector<std::uint8_t> payload) {
  if (!active_) return MessageId{self(), 0};
  // The id is assigned now (the application's send order is the wire
  // order), but transmission waits for window credit — which flow control
  // off grants at once.
  std::size_t queued = queued_sends();
  MessageId id{self(), flow_.send_seq() + queued + 1};
  window_.push_back(proto::Data{id, std::move(payload)});
  if (queued == 0 && flow_admits()) {
    transmit_next();
  } else {
    metrics().on_send_deferred(self(), id, host_.now());
  }
  return id;
}

bool Endpoint::flow_admits() const {
  // Alone in the region there is no peer to grant credit — windowing would
  // wedge the stream after window_size frames, so it does not apply.
  if (host_.local_view().size() <= 1) return true;
  return flow_.may_send();
}

void Endpoint::transmit_next() {
  proto::Data wire = window_[window_.size() - queued_sends()];
  flow_.on_frame_sent();
  if (!cfg_.flow.enabled) window_.pop_front();  // no retransmission copy
  accept(wire, /*from_remote_region=*/false);
  if (cfg_.flow.enabled && cfg_.flow.piggyback &&
      host_.local_view().size() > 1) {
    // Attach our receive cursors to the wire copy only — the stored and
    // retransmission copies stay cursor-free (nested/repair encodings and
    // buffer byte accounting use the core layout).
    wire.cursors = cursor_snapshot();
    advertised_cursors_ = wire.cursors;
    advertised_any_ = true;
  }
  host_.ip_multicast(proto::Message{std::move(wire)});
  if (session_timer_ == kNoTimer) {
    session_timer_ =
        schedule(cfg_.session_interval, [this] { session_tick(); });
  }
}

void Endpoint::drain_window() {
  while (queued_sends() > 0 && flow_admits()) transmit_next();
}

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
  session_timer_ = schedule(cfg_.session_interval, [this] { session_tick(); });
}

// ------------------------------------------------------------ dispatch ----

void Endpoint::handle_message(const proto::Message& msg, MemberId from) {
  if (!active_) return;
  std::visit(
      [this, from](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::Data>) handle_data(m, from);
        if constexpr (std::is_same_v<T, proto::Session>) handle_session(m, from);
        if constexpr (std::is_same_v<T, proto::LocalRequest>)
          handle_local_request(m, from);
        if constexpr (std::is_same_v<T, proto::RemoteRequest>)
          handle_remote_request(m, from);
        if constexpr (std::is_same_v<T, proto::Repair>) handle_repair(m, from);
        if constexpr (std::is_same_v<T, proto::RegionalRepair>)
          handle_regional_repair(m, from);
        if constexpr (std::is_same_v<T, proto::SearchRequest>)
          handle_search_request(m, from);
        if constexpr (std::is_same_v<T, proto::SearchFound>)
          handle_search_found(m, from);
        if constexpr (std::is_same_v<T, proto::Handoff>) handle_handoff(m, from);
        if constexpr (std::is_same_v<T, proto::Gossip>) handle_gossip(m, from);
        if constexpr (std::is_same_v<T, proto::History>) handle_history(m, from);
        if constexpr (std::is_same_v<T, proto::BufferDigest>)
          handle_buffer_digest(m, from);
        if constexpr (std::is_same_v<T, proto::Shed>) handle_shed(m, from);
        if constexpr (std::is_same_v<T, proto::CreditAck>)
          handle_credit_ack(m, from);
        if constexpr (std::is_same_v<T, proto::Escalate>)
          handle_escalate(m, from);
      },
      msg);
}

// ------------------------------------------------------------ reception ----

bool Endpoint::accept(const proto::Data& d, bool from_remote_region) {
  SequenceTracker& tr = tracker(d.id.source);
  if (tr.has(d.id.seq)) return false;

  SequenceTracker::Observation obs = tr.observe_data(d.id.seq);
  assert(obs.is_new);
  for (std::uint64_t gap : obs.new_gaps) {
    start_recovery(MessageId{d.id.source, gap});
  }

  // If we were recovering this message, the recovery just succeeded.
  auto rec = recoveries_.find(d.id);
  if (rec != recoveries_.end()) {
    metrics().on_recovered(self(), d.id, host_.now(),
                           host_.now() - rec->second.started);
    finish_recovery(d.id);
  }

  store_->store(d);
  search_given_up_.erase(d.id);  // we can answer future searches again
  metrics().on_delivered(self(), d.id, host_.now());
  if (delivery_handler_) delivery_handler_(d);

  serve_waiters(d);
  satisfy_searches(d);
  (void)from_remote_region;  // relaying decisions are made by handle_repair
  return true;
}

void Endpoint::serve_waiters(const proto::Data& d) {
  auto it = waiters_.find(d.id);
  if (it == waiters_.end()) return;
  for (MemberId w : it->second) {
    metrics().on_repair_sent(self(), d.id, /*remote=*/true, host_.now());
    host_.send(w, proto::Message{proto::Repair{d.id, d.payload, true}});
  }
  waiters_.erase(it);
}

void Endpoint::satisfy_searches(const proto::Data& d) {
  auto it = searches_.find(d.id);
  if (it == searches_.end()) return;
  SearchTask& task = it->second;
  std::vector<MemberId> all = task.carry;
  for (MemberId m : task.own) {
    if (!contains(all, m)) all.push_back(m);
  }
  for (MemberId rr : all) {
    metrics().on_repair_sent(self(), d.id, /*remote=*/true, host_.now());
    host_.send(rr, proto::Message{proto::Repair{d.id, d.payload, true}});
  }
  cancel(task.timer);
  searches_.erase(it);
  // Stop everyone else still searching on our behalf.
  announce_found(d.id);
}

// ------------------------------------------------------------- handlers ----

void Endpoint::handle_data(const proto::Data& d, MemberId from) {
  if (!d.cursors.empty()) {
    handle_piggyback(d.cursors, from);
    // Strip the piggyback block before storing: buffered, handoff, and
    // repair copies are always the core frame (payload is shared, so this
    // copy is cheap).
    accept(proto::Data{d.id, d.payload}, /*from_remote_region=*/false);
    return;
  }
  accept(d, /*from_remote_region=*/false);
}

void Endpoint::handle_session(const proto::Session& s, MemberId from) {
  if (!s.cursors.empty()) handle_piggyback(s.cursors, from);
  if (s.source == self()) return;
  for (std::uint64_t gap : tracker(s.source).observe_session(s.highest_seq)) {
    start_recovery(MessageId{s.source, gap});
  }
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

void Endpoint::handle_local_request(const proto::LocalRequest& r,
                                    MemberId from) {
  (void)from;
  metrics().on_request_received(self(), r.id, /*remote=*/false, host_.now());
  store_->on_request_seen(r.id);  // feedback for short-term buffering (§3.1)
  if (std::optional<proto::Data> d = store_->get(r.id)) {
    metrics().on_repair_sent(self(), r.id, /*remote=*/false, host_.now());
    host_.send(r.requester,
               proto::Message{proto::Repair{r.id, std::move(d->payload), false}});
    return;
  }
  if (cfg_.hierarchy.enabled && is_representative()) {
    // Aggregation point: the region's NAK funnel lands here, so a miss is
    // ours to recover (escalating up the repair tree as needed). The
    // requester is NOT recorded as a waiter — when the repair arrives it
    // comes back remote and the regional relay covers the whole region; the
    // requester's own retries are the fallback if that relay is lost.
    SequenceTracker& tr = tracker(r.id.source);
    if (!tr.has(r.id.seq)) {
      for (std::uint64_t gap : tr.observe_hint(r.id.seq)) {
        start_recovery(MessageId{r.id.source, gap});
      }
      return;
    }
  }
  // "Otherwise it ignores the request" (§2.2). Starting a recovery here
  // would let one request cascade into region-wide probing for a message
  // that may exist nowhere; the requester's own retries handle it.
}

void Endpoint::handle_remote_request(const proto::RemoteRequest& r,
                                     MemberId from) {
  (void)from;
  metrics().on_request_received(self(), r.id, /*remote=*/true, host_.now());
  store_->on_request_seen(r.id);
  // Case 1 (§3.3): still buffered — answer immediately.
  if (std::optional<proto::Data> d = store_->get(r.id)) {
    metrics().on_repair_sent(self(), r.id, /*remote=*/true, host_.now());
    host_.send(r.requester,
               proto::Message{proto::Repair{r.id, std::move(d->payload), true}});
    return;
  }
  SequenceTracker& tr = tracker(r.id.source);
  // Case 2: never received — record the waiter and relay once we have it.
  if (!tr.has(r.id.seq)) {
    std::vector<MemberId>& w = waiters_[r.id];
    if (!contains(w, r.requester)) w.push_back(r.requester);
    for (std::uint64_t gap : tr.observe_hint(r.id.seq)) {
      start_recovery(MessageId{r.id.source, gap});
    }
    return;
  }
  // Case 3: received but discarded — find a bufferer.
  if (MemberId holder = cached_holder(r.id); holder != kInvalidMember) {
    // A recent search already located a bufferer; point it at the requester.
    host_.send(holder, proto::Message{proto::RemoteRequest{r.id, r.requester}});
    return;
  }
  if (cfg_.search_strategy == Config::SearchStrategy::kMulticastQuery) {
    // Rejected alternative (§3.3): multicast the request; bufferers answer
    // after a randomized back-off.
    metrics().on_search_started(self(), r.id, host_.now());
    host_.multicast_region(
        proto::Message{proto::SearchRequest{r.id, r.requester}});
    return;
  }
  if (cfg_.lookup == BuffererLookup::kHashDirect) {
    // Deterministic scheme [11]: recompute the bufferer set and forward.
    const std::vector<MemberId>& set =
        selector_.select(r.id, host_.local_view().members(), cfg_.hash_k);
    for (MemberId b : set) {
      if (b != self()) {
        host_.send(b, proto::Message{proto::RemoteRequest{r.id, r.requester}});
        return;
      }
    }
    // Fall through to random search if the set is just us (we discarded).
  }
  start_search(r.id, r.requester);
}

void Endpoint::handle_escalate(const proto::Escalate& e, MemberId from) {
  (void)from;
  if (!cfg_.hierarchy.enabled) return;  // config mismatch: drop the frame
  if (e.hop >= cfg_.hierarchy.max_hops) return;  // runaway-forwarding guard
  metrics().on_request_received(self(), e.id, /*remote=*/true, host_.now());
  store_->on_request_seen(e.id);
  // Still buffered: repair the child representative; its regional relay
  // then covers its whole sub-region with one multicast.
  if (std::optional<proto::Data> d = store_->get(e.id)) {
    metrics().on_repair_sent(self(), e.id, /*remote=*/true, host_.now());
    host_.send(e.requester,
               proto::Message{proto::Repair{e.id, std::move(d->payload), true}});
    return;
  }
  SequenceTracker& tr = tracker(e.id.source);
  if (!tr.has(e.id.seq)) {
    // Never received: remember the child representative and recover the
    // message ourselves, climbing one level higher with the incremented hop.
    std::vector<MemberId>& w = waiters_[e.id];
    if (!contains(w, e.requester)) w.push_back(e.requester);
    for (std::uint64_t gap : tr.observe_hint(e.id.seq)) {
      start_recovery(MessageId{e.id.source, gap});
    }
    if (auto it = recoveries_.find(e.id); it != recoveries_.end()) {
      it->second.escalate_hop = std::max(it->second.escalate_hop, e.hop + 1);
    }
    return;
  }
  // Received but discarded: same bufferer-location path as a RemoteRequest.
  if (MemberId holder = cached_holder(e.id); holder != kInvalidMember) {
    host_.send(holder, proto::Message{proto::RemoteRequest{e.id, e.requester}});
    return;
  }
  start_search(e.id, e.requester);
}

void Endpoint::handle_repair(const proto::Repair& r, MemberId from) {
  // Close the RTT sample if this repair answers one of our probes.
  if (cfg_.measure_rtt) {
    auto probe = probes_.find(r.id);
    if (probe != probes_.end()) {
      auto target = probe->second.find(from);
      if (target != probe->second.end()) {
        rtt_.add_sample(from, host_.now() - target->second);
        probes_.erase(probe);
      }
    }
  }
  // Duplicate check first (§2.2): only the first copy triggers a regional
  // relay.
  if (tracker(r.id.source).has(r.id.seq)) return;
  proto::Data d{r.id, r.payload};
  accept(d, r.remote);
  if (r.remote) schedule_regional_relay(d);
}

void Endpoint::handle_regional_repair(const proto::RegionalRepair& r,
                                      MemberId from) {
  (void)from;
  // Another member relayed this message: our own pending relay (if any) is a
  // duplicate — suppress it (§2.2's randomized back-off scheme).
  auto pr = pending_relays_.find(r.id);
  if (pr != pending_relays_.end()) {
    cancel(pr->second.timer);
    pending_relays_.erase(pr);
    metrics().on_relay_suppressed(self(), r.id, host_.now());
  }
  if (tracker(r.id.source).has(r.id.seq)) return;
  accept(proto::Data{r.id, r.payload}, /*from_remote_region=*/false);
}

void Endpoint::handle_search_request(const proto::SearchRequest& r,
                                     MemberId from) {
  (void)from;
  store_->on_request_seen(r.id);
  if (cfg_.search_strategy == Config::SearchStrategy::kMulticastQuery) {
    // Back-off reply: answer only if still buffering, after U(0, unit*C).
    if (store_->has(r.id)) schedule_query_reply(r.id, r.remote_requester);
    return;
  }
  // Bufferer found: repair the remote requester and stop the search (§3.3).
  if (std::optional<proto::Data> d = store_->get(r.id)) {
    metrics().on_repair_sent(self(), r.id, /*remote=*/true, host_.now());
    host_.send(r.remote_requester,
               proto::Message{proto::Repair{r.id, std::move(d->payload), true}});
    announce_found(r.id);
    return;
  }
  SequenceTracker& tr = tracker(r.id.source);
  // A completed search may have located the holder already; redirect.
  if (tr.has(r.id.seq)) {
    if (MemberId holder = cached_holder(r.id); holder != kInvalidMember) {
      host_.send(holder,
                 proto::Message{proto::RemoteRequest{r.id, r.remote_requester}});
      return;
    }
  }
  if (!tr.has(r.id.seq)) {
    // Footnote 4: never received it — recover it ourselves, and remember the
    // remote requester so it is served on receipt.
    std::vector<MemberId>& w = waiters_[r.id];
    if (!contains(w, r.remote_requester)) w.push_back(r.remote_requester);
    for (std::uint64_t gap : tr.observe_hint(r.id.seq)) {
      start_recovery(MessageId{r.id.source, gap});
    }
    return;
  }
  // Discarded here too: join the search.
  if (search_abandoned(r.id)) return;  // we already exhausted our attempts
  auto it = searches_.find(r.id);
  if (it != searches_.end()) {
    if (!contains(it->second.carry, r.remote_requester)) {
      it->second.carry.push_back(r.remote_requester);
    }
    return;  // already probing; our retry timer is running
  }
  SearchTask task;
  task.started = host_.now();
  task.carry.push_back(r.remote_requester);
  searches_.emplace(r.id, std::move(task));
  metrics().on_search_started(self(), r.id, host_.now());
  search_attempt(r.id);
}

void Endpoint::handle_search_found(const proto::SearchFound& f,
                                   MemberId from) {
  (void)from;
  remember_holder(f.id, f.holder);
  // Suppress our own pending back-off reply (kMulticastQuery).
  auto pr = pending_replies_.find(f.id);
  if (pr != pending_replies_.end()) {
    cancel(pr->second.timer);
    pending_replies_.erase(pr);
    metrics().on_relay_suppressed(self(), f.id, host_.now());
  }
  end_search(f.id, f.holder);
}

void Endpoint::handle_handoff(const proto::Handoff& h, MemberId from) {
  (void)from;
  for (const proto::Data& d : h.messages) {
    if (!tracker(d.id.source).has(d.id.seq)) {
      // We never had this message: deliver it, then upgrade to long-term.
      accept(d, /*from_remote_region=*/false);
    }
    store_->accept_handoff(d);
  }
}

void Endpoint::handle_gossip(const proto::Gossip& g, MemberId from) {
  (void)from;
  if (gossip_fd_) gossip_fd_->handle_gossip(g);
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
  store_->digests().update(d.member, d.bytes_in_use, d.ranges,
                           d.window_outstanding);
  if (cfg_.flow.enabled) {
    // The digest doubles as an occupancy report: a neighbor nearing its
    // budget sheds credit from our window before eviction pressure hits it.
    flow_.on_peer_occupancy(d.member, d.bytes_in_use, d.window_outstanding);
    drain_window();
  }
}

void Endpoint::handle_credit_ack(const proto::CreditAck& a, MemberId from) {
  (void)from;
  if (!cfg_.flow.enabled) return;
  if (a.member == self()) return;  // the regional multicast loops back
  // An ack can race its sender's departure (in flight when the view
  // dropped the member). Installing its cursor would re-wedge the window
  // floor that retain_peers just released, until the next retain pass —
  // departed members get no credit voice.
  if (!host_.local_view().contains(a.member)) return;
  // A stale-generation ack (sent pre-partition, delivered post-heal) must
  // not regress our view of the peer's reported cursor: the peer re-seeded
  // at the current floor at heal, and only its post-heal acks — stamped
  // with the current generation — speak for it again.
  if (a.view_gen != view_gen_) return;
  // During the partition itself, severed peers get no credit voice at all.
  if (flow_unreachable(a.member)) return;
  // Every acking region peer bounds our window, whether or not it has
  // received anything of our stream yet (absent cursor = nothing, 0).
  std::uint64_t cursor = 0;
  for (const proto::ReceiveCursor& c : a.cursors) {
    if (c.source == self()) cursor = c.cursor;
  }
  flow_.on_cursor(a.member, cursor);
  flow_.on_peer_budget(a.member, a.bytes_in_use, a.budget_bytes);
  drain_window();
}

void Endpoint::handle_shed(const proto::Shed& s, MemberId from) {
  (void)from;
  if (!cfg_.buffer_coordination.enabled) return;
  // The neighbor is about to discard the region's (believed) last copy; we
  // inherit the bufferer responsibility, exactly like a leave-time handoff:
  // deliver if never received, then keep the copy long-term.
  if (!tracker(s.message.id.source).has(s.message.id.seq)) {
    accept(s.message, /*from_remote_region=*/false);
  }
  store_->accept_handoff(s.message);
}

void Endpoint::handle_history(const proto::History& h, MemberId from) {
  if (cfg_.anti_entropy) pull_from_digest(h, from);
  if (!history_enabled_) return;
  for (const proto::SourceHistory& sh : h.sources) {
    stability_.update(h.member, sh);
  }
  recompute_stability();
}

// ------------------------------------------------------------- recovery ----

void Endpoint::start_recovery(const MessageId& id) {
  if (!active_ || !cfg_.gap_driven_recovery) return;
  if (tracker(id.source).has(id.seq)) return;
  if (recoveries_.count(id)) return;
  RecoveryTask task;
  task.started = host_.now();
  recoveries_.emplace(id, task);
  metrics().on_loss_detected(self(), id, host_.now());
  // The two phases run concurrently (§2.2).
  local_attempt(id);
  remote_attempt(id);
}

void Endpoint::finish_recovery(const MessageId& id) {
  auto it = recoveries_.find(id);
  if (it == recoveries_.end()) return;
  cancel(it->second.local_timer);
  cancel(it->second.remote_timer);
  recoveries_.erase(it);
  probes_.erase(id);
}

MemberId Endpoint::pick_request_target(const MessageId& id) {
  if (cfg_.hierarchy.enabled) {
    // Repair tree: the first NAK goes to the region's aggregation point —
    // deterministic, no RNG draw. Retries fall back to random neighbors in
    // case the representative itself is wedged.
    MemberId rep = region_representative();
    if (rep != kInvalidMember && rep != self() &&
        recoveries_[id].local_attempts == 0) {
      return rep;
    }
  }
  if (cfg_.lookup == BuffererLookup::kHashDirect) {
    // Deterministic scheme [11]: ask the hash-selected bufferers directly,
    // round-robin over the set across attempts.
    const std::vector<MemberId>& set =
        selector_.select(id, host_.local_view().members(), cfg_.hash_k);
    bufferer_scratch_.assign(set.begin(), set.end());
    std::erase(bufferer_scratch_, self());
    if (!bufferer_scratch_.empty()) {
      auto& task = recoveries_[id];
      return bufferer_scratch_[task.local_attempts % bufferer_scratch_.size()];
    }
  }
  return host_.local_view().pick_random(host_.rng(), self());
}

void Endpoint::local_attempt(const MessageId& id) {
  auto it = recoveries_.find(id);
  if (it == recoveries_.end()) return;
  RecoveryTask& task = it->second;
  task.local_timer = kNoTimer;
  if (cfg_.hierarchy.enabled && task.local_attempts > 0 &&
      task.remote_timer == kNoTimer && is_representative()) {
    // Representative fail-over: the remote phase was skipped while some
    // other member held the funnel; a re-election (crash, partition bump)
    // can hand it to us mid-recovery. Pick the escalation up from here —
    // at local_attempts == 0 start_recovery drives the remote phase itself.
    remote_attempt(id);
  }
  if (cfg_.max_attempts != 0 && task.local_attempts >= cfg_.max_attempts) {
    return;  // give up on the local phase; remote phase may still succeed
  }
  MemberId q = pick_request_target(id);
  if (q == kInvalidMember) {
    // Alone in the region: retry later in case the view grows.
    task.local_timer = schedule(host_.rtt_estimate(self()),
                                [this, id] { local_attempt(id); });
    return;
  }
  ++task.local_attempts;
  metrics().on_request_sent(self(), id, /*remote=*/false, host_.now());
  if (cfg_.measure_rtt) probes_[id].try_emplace(q, host_.now());
  host_.send(q, proto::Message{proto::LocalRequest{id, self()}});
  task.local_timer =
      schedule(retry_backoff(request_timeout(q), task.local_attempts - 1),
               [this, id] { local_attempt(id); });
}

void Endpoint::remote_attempt(const MessageId& id) {
  auto it = recoveries_.find(id);
  if (it == recoveries_.end()) return;
  RecoveryTask& task = it->second;
  task.remote_timer = kNoTimer;
  if (cfg_.hierarchy.enabled) {
    // Multi-level repair: only the region's aggregation point escalates, and
    // it escalates to its *parent region's* aggregation point rather than a
    // random parent member. Non-representatives rely on the representative's
    // funnel (plus their own local retries) — no per-member remote traffic.
    if (!is_representative()) return;
    if (cfg_.max_attempts != 0 && task.remote_attempts >= cfg_.max_attempts) {
      return;
    }
    ++task.remote_attempts;
    MemberId up = parent_representative();
    if (up != kInvalidMember) {
      metrics().on_request_sent(self(), id, /*remote=*/true, host_.now());
      host_.send(up,
                 proto::Message{proto::Escalate{id, self(), task.escalate_hop}});
    } else if (id.source != self()) {
      // Root of the repair tree: last resort is the original sender.
      up = id.source;
      metrics().on_request_sent(self(), id, /*remote=*/true, host_.now());
      host_.send(up, proto::Message{proto::RemoteRequest{id, self()}});
    } else {
      return;  // we are the sender and the root — nobody above us
    }
    task.remote_timer =
        schedule(retry_backoff(request_timeout(up), task.remote_attempts - 1),
                 [this, id] { remote_attempt(id); });
    return;
  }
  const membership::RegionView& parent = host_.parent_view();
  if (parent.empty()) return;  // root region: no remote phase (§2.2)
  if (cfg_.max_attempts != 0 && task.remote_attempts >= cfg_.max_attempts) {
    return;
  }
  ++task.remote_attempts;
  MemberId r = parent.pick_random(host_.rng());
  if (r == kInvalidMember) return;
  // Send with probability lambda/n so that, region-wide, the expected number
  // of remote requests per recovery round is lambda (§2.2). The retry timer
  // is armed whether or not a request was actually sent.
  std::size_t n = std::max<std::size_t>(host_.local_view().size(), 1);
  if (host_.rng().bernoulli(cfg_.lambda / static_cast<double>(n))) {
    if (cfg_.lookup == BuffererLookup::kHashDirect) {
      const std::vector<MemberId>& set =
          selector_.select(id, parent.members(), cfg_.hash_k);
      if (!set.empty()) r = set[task.remote_attempts % set.size()];
    }
    metrics().on_request_sent(self(), id, /*remote=*/true, host_.now());
    host_.send(r, proto::Message{proto::RemoteRequest{id, self()}});
  }
  task.remote_timer =
      schedule(request_timeout(r), [this, id] { remote_attempt(id); });
}

// ---------------------------------------------------------- repair tree ----

void Endpoint::refresh_representatives() {
  std::uint64_t epoch = host_.view_epoch();
  if (rep_cache_valid_ && rep_epoch_ == epoch && rep_generation_ == view_gen_) {
    return;
  }
  // Own-region election excludes peers severed from us by an active
  // partition: an unreachable representative funnels NAKs into a black hole.
  // Folding the connectivity generation into the score re-runs the election
  // deterministically on every partition/heal.
  const std::vector<MemberId>& members = host_.local_view().members();
  if (flow_unreachable_.empty()) {
    local_rep_ =
        repair::elect_representative(members, cfg_.hierarchy.salt, view_gen_);
  } else {
    rep_scratch_.clear();
    for (MemberId m : members) {
      if (!std::binary_search(flow_unreachable_.begin(),
                              flow_unreachable_.end(), m)) {
        rep_scratch_.push_back(m);
      }
    }
    local_rep_ = repair::elect_representative(rep_scratch_,
                                              cfg_.hierarchy.salt, view_gen_);
  }
  parent_rep_ = repair::elect_representative(host_.parent_view().members(),
                                             cfg_.hierarchy.salt, view_gen_);
  rep_cache_valid_ = true;
  rep_epoch_ = epoch;
  rep_generation_ = view_gen_;
}

MemberId Endpoint::region_representative() {
  refresh_representatives();
  return local_rep_;
}

MemberId Endpoint::parent_representative() {
  refresh_representatives();
  return parent_rep_;
}

Duration Endpoint::retry_backoff(Duration base, std::uint32_t attempts) const {
  if (!cfg_.hierarchy.enabled || cfg_.hierarchy.max_backoff_shift == 0) {
    return base;
  }
  std::uint32_t shift = std::min(attempts, cfg_.hierarchy.max_backoff_shift);
  return base * static_cast<std::int64_t>(std::uint64_t{1} << shift);
}

// --------------------------------------------------------------- search ----

bool Endpoint::search_abandoned(const MessageId& id) {
  auto it = search_given_up_.find(id);
  if (it == search_given_up_.end()) return false;
  if (host_.now() - it->second > cfg_.search_cache_ttl) {
    search_given_up_.erase(it);
    return false;
  }
  return true;
}

void Endpoint::start_search(const MessageId& id, MemberId requester) {
  if (search_abandoned(id)) return;  // recently exhausted max_attempts
  auto it = searches_.find(id);
  if (it != searches_.end()) {
    if (!contains(it->second.carry, requester)) {
      it->second.carry.push_back(requester);
    }
    if (!contains(it->second.own, requester)) {
      it->second.own.push_back(requester);
    }
    return;
  }
  SearchTask task;
  task.started = host_.now();
  task.carry.push_back(requester);
  task.own.push_back(requester);
  searches_.emplace(id, std::move(task));
  metrics().on_search_started(self(), id, host_.now());
  search_attempt(id);
}

void Endpoint::search_attempt(const MessageId& id) {
  auto it = searches_.find(id);
  if (it == searches_.end()) return;
  SearchTask& task = it->second;
  task.timer = kNoTimer;
  if (cfg_.max_attempts != 0 && task.attempts >= cfg_.max_attempts) {
    search_given_up_[id] = host_.now();
    searches_.erase(it);
    return;
  }
  MemberId q = host_.local_view().pick_random(host_.rng(), self());
  if (q == kInvalidMember) {
    searches_.erase(it);  // nobody to search: the message is gone from here
    return;
  }
  ++task.attempts;
  metrics().on_search_hop(self(), q, id, host_.now());
  host_.send(q, proto::Message{proto::SearchRequest{id, task.carry.front()}});
  task.timer = schedule(request_timeout(q), [this, id] { search_attempt(id); });
}

void Endpoint::end_search(const MessageId& id, MemberId holder) {
  auto it = searches_.find(id);
  if (it == searches_.end()) return;
  SearchTask& task = it->second;
  cancel(task.timer);
  // The chain that reached the holder served the requester it carried; any
  // requester that contacted us directly might not have been on that chain,
  // so point the holder at them (it answers RemoteRequests from its buffer).
  for (MemberId rr : task.own) {
    host_.send(holder, proto::Message{proto::RemoteRequest{id, rr}});
  }
  searches_.erase(it);
}

void Endpoint::schedule_query_reply(const MessageId& id, MemberId requester) {
  if (pending_replies_.count(id)) return;  // one reply per query round
  double window_us =
      static_cast<double>(cfg_.query_backoff_unit.us()) * cfg_.query_backoff_c;
  Duration delay = Duration::micros(
      static_cast<std::int64_t>(host_.rng().uniform_real(0.0, window_us)));
  PendingReply reply;
  reply.requester = requester;
  reply.timer = schedule(delay, [this, id] { fire_query_reply(id); });
  pending_replies_.emplace(id, std::move(reply));
}

void Endpoint::fire_query_reply(const MessageId& id) {
  auto it = pending_replies_.find(id);
  if (it == pending_replies_.end()) return;
  MemberId requester = it->second.requester;
  pending_replies_.erase(it);
  std::optional<proto::Data> d = store_->get(id);
  if (!d) return;  // discarded while backing off
  metrics().on_repair_sent(self(), id, /*remote=*/true, host_.now());
  host_.send(requester,
             proto::Message{proto::Repair{id, std::move(d->payload), true}});
  // Count every fired back-off reply as a completed-search announcement;
  // duplicates that the window failed to suppress are the "implosion".
  metrics().on_search_completed(self(), id, host_.now());
  host_.multicast_region(proto::Message{proto::SearchFound{id, self()}});
}

void Endpoint::announce_found(const MessageId& id) {
  TimePoint now = host_.now();
  auto it = last_announce_.find(id);
  if (it != last_announce_.end() &&
      now - it->second < host_.rtt_estimate(self())) {
    return;  // straggler probe; the region heard the announcement already
  }
  last_announce_[id] = now;
  remember_holder(id, self());
  metrics().on_search_completed(self(), id, now);
  host_.multicast_region(proto::Message{proto::SearchFound{id, self()}});
}

MemberId Endpoint::cached_holder(const MessageId& id) {
  auto it = found_cache_.find(id);
  if (it == found_cache_.end()) return kInvalidMember;
  if (host_.now() - it->second.second > cfg_.search_cache_ttl) {
    found_cache_.erase(it);
    return kInvalidMember;
  }
  return it->second.first;
}

void Endpoint::remember_holder(const MessageId& id, MemberId holder) {
  found_cache_[id] = {holder, host_.now()};
  search_given_up_.erase(id);  // a holder exists after all
}

// ------------------------------------------------------- regional relay ----

void Endpoint::schedule_regional_relay(const proto::Data& d) {
  if (host_.local_view().size() <= 1) return;
  if (pending_relays_.count(d.id)) return;
  if (cfg_.regional_backoff <= Duration::zero()) {
    metrics().on_regional_multicast(self(), d.id, host_.now());
    host_.multicast_region(
        proto::Message{proto::RegionalRepair{d.id, d.payload, self()}});
    return;
  }
  // Randomized back-off (§2.2): wait U(0, backoff); another member's relay
  // of the same message suppresses ours.
  Duration delay = Duration::micros(static_cast<std::int64_t>(
      host_.rng().uniform_real(0.0,
                               static_cast<double>(cfg_.regional_backoff.us()))));
  PendingRelay relay;
  relay.data = d;
  relay.timer = schedule(delay, [this, id = d.id] { fire_regional_relay(id); });
  pending_relays_.emplace(d.id, std::move(relay));
}

void Endpoint::fire_regional_relay(const MessageId& id) {
  auto it = pending_relays_.find(id);
  if (it == pending_relays_.end()) return;
  proto::Data d = std::move(it->second.data);
  pending_relays_.erase(it);
  metrics().on_regional_multicast(self(), id, host_.now());
  host_.multicast_region(
      proto::Message{proto::RegionalRepair{d.id, std::move(d.payload), self()}});
}

// ------------------------------------------------------------ stability ----

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
  history_timer_ = schedule(cfg_.history_interval, [this] { history_tick(); });
}

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
  store_->digests().age(cfg_.buffer_coordination.max_missed_digests);
  // Advertise even when empty: a zero bytes_in_use digest is exactly what
  // makes this member the least-loaded shed target.
  proto::BufferDigest d = store_->build_digest();
  d.view_gen = view_gen_;
  if (cfg_.flow.enabled) d.window_outstanding = flow_.outstanding();
  host_.multicast_region(proto::Message{std::move(d)});
  digest_timer_ = schedule(cfg_.buffer_coordination.digest_interval,
                           [this] { digest_tick(); });
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
  const std::vector<MemberId>& view = host_.local_view().members();
  if (flow_unreachable_.empty()) return view;
  flow_peers_scratch_.clear();
  for (MemberId m : view) {
    if (!flow_unreachable(m)) flow_peers_scratch_.push_back(m);
  }
  return flow_peers_scratch_;
}

bool Endpoint::flow_unreachable(MemberId m) const {
  return !flow_unreachable_.empty() &&
         std::binary_search(flow_unreachable_.begin(), flow_unreachable_.end(),
                            m);
}

void Endpoint::sync_flow_peers() {
  const std::vector<MemberId>& now = flow_peers();
  if (now == flow_view_) return;
  // Members in the reachable set but not the last snapshot genuinely joined
  // (or just became reachable again at a partition heal): seed their cursor
  // at the current floor so their first (necessarily stale) acks cannot
  // drag the floor back through frames the crowd already acknowledged.
  // Members that were merely quiet stay unseeded — their first real ack is
  // allowed to lower the floor.
  for (MemberId m : now) {
    if (m == self()) continue;
    if (!std::binary_search(flow_view_.begin(), flow_view_.end(), m)) {
      flow_.on_peer_joined(m);
    }
  }
  flow_view_ = now;
}

void Endpoint::on_view_change() {
  if (!active_ || !cfg_.flow.enabled) return;
  // Reconcile credit state NOW, not at the next credit tick: a departed
  // slowest peer otherwise wedges every sender's floor for up to one ack
  // interval (and handle_credit_ack's membership check keeps an in-flight
  // stale ack from re-installing it).
  flow_.retain_peers(flow_peers());
  sync_flow_peers();
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
  // generation bump does not change — force the next credit tick to
  // multicast a fresh, correctly-stamped ack anyway.
  advertised_any_ = false;
  quiet_ticks_ = 0;
  // Partition: release credit bindings to peers we can no longer reach —
  // their frozen cursors must not wedge the window at floor + window for
  // the partition's lifetime. Heal: the other side re-enters flow_peers()
  // and sync_flow_peers seeds it at the current floor, so its first
  // post-heal acks (stamped with the new generation) cannot drag the floor
  // back through the partition-era stream.
  flow_.retain_peers(flow_peers());
  sync_flow_peers();
  drain_window();
}

void Endpoint::credit_tick() {
  credit_timer_ = kNoTimer;
  const membership::RegionView& view = host_.local_view();
  // A departed peer's last cursor must not wedge the window floor, and its
  // occupancy must not pin phantom back-pressure. (on_view_change does this
  // eagerly on hosts that report view changes; the tick remains the
  // transport-independent fallback.)
  flow_.retain_peers(flow_peers());
  sync_flow_peers();
  if (view.size() > 1) {
    proto::CreditAck ack;
    ack.member = self();
    ack.bytes_in_use = store_->bytes();
    ack.budget_bytes = cfg_.buffer_budget.max_bytes;
    ack.cursors = cursor_snapshot();
    ack.view_gen = view_gen_;
    // With piggybacking, the periodic ack is a fallback for quiet
    // receivers: suppress it while our piggybacked frames already carry
    // exactly these cursors, but refresh every few ticks anyway — the
    // frames carrying the last advertisement may have been lost.
    bool suppress = cfg_.flow.piggyback && advertised_any_ &&
                    ack.cursors == advertised_cursors_ &&
                    quiet_ticks_ + 1 < kQuietAckRefreshTicks;
    if (suppress) {
      ++quiet_ticks_;
      metrics().on_credit_ack_suppressed(self(), host_.now());
    } else {
      advertised_cursors_ = ack.cursors;
      advertised_any_ = true;
      quiet_ticks_ = 0;
      metrics().on_credit_ack_sent(self(), host_.now());
      host_.multicast_region(proto::Message{std::move(ack)});
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
    // and the stuck cursors advance. The wedging frame is normally at the
    // front, but a floor that moved backward (a peer's first report
    // arriving after faster peers') points before it or, once pruned, below
    // the oldest frame kept — then there is nothing to re-multicast.
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
          metrics().on_flow_stall_release(self(), host_.now());
          drain_window();
        } else if (!window_.empty() &&
                   window_.front().id.seq <= stall_floor_ + 1) {
          const proto::Data& wedged =
              window_[stall_floor_ + 1 - window_.front().id.seq];
          metrics().on_flow_stall_remcast(self(), wedged.id, host_.now());
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
  credit_timer_ = schedule(cfg_.flow.ack_interval, [this] { credit_tick(); });
}

void Endpoint::anti_entropy_tick() {
  anti_entropy_timer_ = kNoTimer;
  // One digest to one uniformly random neighbor per round ([3]).
  MemberId q = host_.local_view().pick_random(host_.rng(), self());
  if (q != kInvalidMember) {
    proto::History h = build_history();
    if (!h.sources.empty()) host_.send(q, proto::Message{std::move(h)});
  }
  anti_entropy_timer_ =
      schedule(cfg_.anti_entropy_interval, [this] { anti_entropy_tick(); });
}

void Endpoint::pull_from_digest(const proto::History& digest, MemberId from) {
  std::uint32_t pulls = 0;
  for (const proto::SourceHistory& sh : digest.sources) {
    SequenceTracker& tr = tracker(sh.source);
    auto sender_has = [&sh](std::uint64_t seq) {
      if (seq < sh.next_expected) return true;
      std::uint64_t off = seq - sh.next_expected;
      std::size_t w = static_cast<std::size_t>(off / 64);
      if (w >= sh.bitmap.size()) return false;
      return ((sh.bitmap[w] >> (off % 64)) & 1) != 0;
    };
    std::uint64_t sender_max =
        sh.next_expected - 1 + 64 * static_cast<std::uint64_t>(sh.bitmap.size());
    for (std::uint64_t seq = std::max<std::uint64_t>(1, tr.next_expected());
         seq <= sender_max && pulls < cfg_.anti_entropy_max_pulls; ++seq) {
      if (tr.has(seq) || !sender_has(seq)) continue;
      // Record that the sequence exists (no gap-driven task is spawned when
      // that engine is off) and pull it straight from the digest's sender.
      (void)tr.observe_hint(seq);
      ++pulls;
      MessageId id{sh.source, seq};
      metrics().on_request_sent(self(), id, /*remote=*/false, host_.now());
      host_.send(from, proto::Message{proto::LocalRequest{id, self()}});
    }
  }
}

void Endpoint::recompute_stability() {
  auto* stab = dynamic_cast<buffer::StabilityPolicy*>(&store_->policy());
  if (stab == nullptr) return;
  const std::vector<MemberId>& expected = host_.local_view().members();
  for (const auto& [source, tr] : trackers_) {
    std::uint64_t stable = stability_.stable_below(source, expected);
    if (stable > 0) stab->mark_stable_below(source, stable);
  }
}

// -------------------------------------------------------------- helpers ----

bool Endpoint::has_received(const MessageId& id) const {
  auto it = trackers_.find(id.source);
  return it != trackers_.end() && it->second.has(id.seq);
}

std::uint64_t Endpoint::received_count() const {
  std::uint64_t total = 0;
  for (const auto& [source, tr] : trackers_) total += tr.received_count();
  return total;
}

std::vector<std::uint64_t> Endpoint::missing_from(MemberId source) const {
  auto it = trackers_.find(source);
  if (it == trackers_.end()) return {};
  return it->second.missing();
}

TimerHandle Endpoint::schedule(Duration d, std::function<void()> fn) {
  return host_.schedule(d, [this, token = alive_token_, f = std::move(fn)] {
    // Check the token before touching any member: the endpoint may have
    // been destroyed while this callback sat in the timer queue.
    if (*token && active_) f();
  });
}

void Endpoint::cancel(TimerHandle& t) {
  if (t != kNoTimer) {
    host_.cancel(t);
    t = kNoTimer;
  }
}

Duration Endpoint::request_timeout(MemberId peer) const {
  Duration base = host_.rtt_estimate(peer);
  if (cfg_.measure_rtt) base = rtt_.rto(peer, base);
  return base.scaled(cfg_.timeout_factor);
}

}  // namespace rrmp

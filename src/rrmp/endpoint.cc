#include "rrmp/endpoint.h"

#include <cassert>

namespace rrmp {
namespace {

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

std::uint64_t Endpoint::Env::schedule(Duration d, sim::Callback fn) {
  return ep_.host_.schedule(d, std::move(fn));
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

// ----------------------------------------------------------- lifecycle ----

Endpoint::Endpoint(IHost& host, Config config,
                   std::unique_ptr<buffer::RetentionPolicy> policy,
                   RecordingSink& metrics)
    : host_(host),
      cfg_(sanitized(std::move(config))),
      env_(*this),
      // cfg_, not config: the store must see the sanitized coordination
      // knobs (cfg_ is declared before store_, so it is built first).
      store_(std::make_unique<buffer::BufferStore>(std::move(policy),
                                                   cfg_.buffer_budget,
                                                   cfg_.buffer_coordination)),
      metrics_(metrics),
      // Our own budget doubles as the fallback yardstick for peers that
      // advertise occupancy without a budget (BufferDigest gossip).
      flow_(cfg_.flow, cfg_.buffer_budget.max_bytes) {
  store_->bind(&env_);
  buffer::RetentionPolicy& retention = store_->policy();
  stability_policy_ = dynamic_cast<buffer::StabilityPolicy*>(&retention);
  hash_policy_ = dynamic_cast<const buffer::HashBasedPolicy*>(&retention);
  if (stability_policy_ != nullptr) {
    history_timer_ =
        host_.schedule(kHistoryInterval, [this] { history_tick(); });
  }
  if (cfg_.anti_entropy) {
    anti_entropy_timer_ = host_.schedule(cfg_.anti_entropy_interval,
                                         [this] { anti_entropy_tick(); });
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
      this->metrics_.on_handoff_sent(self(), target, 1, host_.now());
      host_.send(target, proto::Message{proto::Shed{self(), d}});
      return true;
    });
    digest_timer_ = host_.schedule(cfg_.buffer_coordination.digest_interval,
                                   [this] { digest_tick(); });
  }
  if (cfg_.flow.enabled) {
    aimd_round_start_ = host_.now();
    credit_timer_ =
        host_.schedule(cfg_.flow.ack_interval, [this] { credit_tick(); });
  }
}

Endpoint::~Endpoint() { halt(); }

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
  store_->cancel_timers();
  waiters_.clear();
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
    metrics_.on_handoff_sent(self(), target, handoff.messages.size(),
                              host_.now());
    host_.send(target, proto::Message{std::move(handoff)});
  }
  halt();
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
    metrics_.on_send_deferred(self(), id, host_.now());
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
  // Our first frame: from here every reachable peer bounds the window,
  // including any that never hears a frame of ours and so never acks.
  if (cfg_.flow.enabled && flow_.send_seq() == 1) {
    flow_.sync_peers(flow_peers());
  }
  if (!cfg_.flow.enabled) window_.pop_front();  // no retransmission copy
  accept(wire);
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
  // New data snaps a backed-off heartbeat back: the first Session after it
  // still goes out within one session_interval.
  if (session_timer_ == kNoTimer || session_gap_ > cfg_.session_interval) {
    cancel(session_timer_);
    session_gap_ = cfg_.session_interval;
    session_timer_ = host_.schedule(session_gap_, [this] { session_tick(); });
  }
}

void Endpoint::drain_window() {
  while (queued_sends() > 0 && flow_admits()) transmit_next();
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

void Endpoint::accept(const proto::Data& d) {
  SequenceTracker& tr = tracker(d.id.source);
  if (tr.has(d.id.seq)) return;

  SequenceTracker::Observation obs = tr.observe_data(d.id.seq);
  assert(obs.is_new);
  for (std::uint64_t gap : obs.new_gaps) {
    start_recovery(MessageId{d.id.source, gap});
  }

  // If we were recovering this message, the recovery just succeeded.
  auto rec = recoveries_.find(d.id);
  if (rec != recoveries_.end()) {
    metrics_.on_recovered(self(), d.id, host_.now(),
                           host_.now() - rec->second.started);
    finish_recovery(d.id);
  }

  store_->store(d);
  search_given_up_.erase(d.id);  // we can answer future searches again
  metrics_.on_delivered(self(), d.id, host_.now());
  if (delivery_handler_) delivery_handler_(d);

  serve_waiters(d);
  satisfy_searches(d);
}

void Endpoint::inherit(const proto::Data& d) {
  accept(d);  // delivers only what we never received
  store_->accept_handoff(d);
}

void Endpoint::handle_data(const proto::Data& d, MemberId from) {
  if (!d.cursors.empty()) {
    handle_piggyback(d.cursors, from);
    // Strip the piggyback block before storing: buffered, handoff, and
    // repair copies are always the core frame (payload is shared, so this
    // copy is cheap).
    accept(proto::Data{d.id, d.payload});
    return;
  }
  accept(d);
}

void Endpoint::handle_session(const proto::Session& s, MemberId from) {
  if (!s.cursors.empty()) handle_piggyback(s.cursors, from);
  if (s.source == self()) return;
  for (std::uint64_t gap : tracker(s.source).observe_session(s.highest_seq)) {
    start_recovery(MessageId{s.source, gap});
  }
}

void Endpoint::handle_handoff(const proto::Handoff& h, MemberId from) {
  (void)from;
  for (const proto::Data& d : h.messages) inherit(d);
}

void Endpoint::handle_shed(const proto::Shed& s, MemberId from) {
  (void)from;
  if (!cfg_.buffer_coordination.enabled) return;
  // The neighbor is about to discard the region's (believed) last copy; we
  // inherit the bufferer responsibility, exactly like a leave-time handoff.
  inherit(s.message);
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

void Endpoint::cancel(TimerHandle& t) {
  if (t != kNoTimer) {
    host_.cancel(t);
    t = kNoTimer;
  }
}

Duration Endpoint::request_timeout(MemberId peer) const {
  Duration base = host_.rtt_estimate(peer);
  return cfg_.measure_rtt ? rtt_.rto(peer, base) : base;
}

}  // namespace rrmp

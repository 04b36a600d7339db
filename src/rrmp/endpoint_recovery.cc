// Endpoint's recovery engine (see endpoint.h): the request ladder, repairs,
// local/remote phases, representatives, search, relay, anti-entropy pulls.
#include "rrmp/endpoint.h"

#include <algorithm>

namespace rrmp {
namespace {

bool contains(const std::vector<MemberId>& v, MemberId m) {
  return std::find(v.begin(), v.end(), m) != v.end();
}

}  // namespace

// --------------------------------------------------- request handlers ----

void Endpoint::handle_local_request(const proto::LocalRequest& r,
                                    MemberId from) {
  (void)from;
  store_->on_request_seen(r.id);  // feedback for short-term buffering (§3.1)
  if (std::optional<proto::Data> d = store_->get(r.id)) {
    send_repair(r.requester, *d, /*remote=*/false);
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

Endpoint::Answer Endpoint::answer_request(const MessageId& id,
                                          MemberId requester,
                                          std::uint32_t hop) {
  // Case 1 (§3.3): still buffered — answer immediately.
  if (std::optional<proto::Data> d = store_->get(id)) {
    send_repair(requester, *d, /*remote=*/true);
    return Answer::kRepaired;
  }
  SequenceTracker& tr = tracker(id.source);
  // Case 2 (footnote 4): never received — record the waiter and relay once
  // we have it. An escalation-triggered recovery climbs one level higher.
  if (!tr.has(id.seq)) {
    std::vector<MemberId>& w = waiters_[id];
    if (!contains(w, requester)) w.push_back(requester);
    for (std::uint64_t gap : tr.observe_hint(id.seq)) {
      start_recovery(MessageId{id.source, gap}, hop);
    }
    if (auto it = recoveries_.find(id); it != recoveries_.end()) {
      it->second.escalate_hop = std::max(it->second.escalate_hop, hop);
    }
    return Answer::kAwaited;
  }
  // Case 3: received but discarded. A recent search already located a
  // bufferer; point it at the requester.
  if (MemberId holder = cached_holder(id); holder != kInvalidMember) {
    host_.send(holder, proto::Message{proto::RemoteRequest{id, requester}});
    return Answer::kForwarded;
  }
  return Answer::kUnanswered;
}

void Endpoint::handle_remote_request(const proto::RemoteRequest& r,
                                     MemberId from) {
  (void)from;
  store_->on_request_seen(r.id);
  if (answer_request(r.id, r.requester, 0) != Answer::kUnanswered) return;
  // Discarded with no known holder: find a bufferer.
  if (cfg_.search_strategy == Config::SearchStrategy::kMulticastQuery) {
    // Rejected alternative (§3.3): multicast the request; bufferers answer
    // after a randomized back-off.
    metrics_.on_search_started(self(), r.id, host_.now());
    host_.multicast_region(
        proto::Message{proto::SearchRequest{r.id, r.requester}});
    return;
  }
  if (hash_policy_ != nullptr) {
    // Deterministic scheme [11]: recompute the bufferer set and forward.
    const std::vector<MemberId>& set = selector_.select(
        r.id, host_.local_view().members(), hash_policy_->params().k);
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
  if (e.hop >= repair::kMaxEscalateHops) return;  // runaway-forwarding guard
  store_->on_request_seen(e.id);
  // A repair goes to the child representative, whose regional relay then
  // covers its whole sub-region with one multicast.
  if (answer_request(e.id, e.requester, e.hop + 1) == Answer::kUnanswered) {
    start_search(e.id, e.requester);
  }
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
  Answer answer = answer_request(r.id, r.remote_requester, 0);
  if (answer == Answer::kRepaired) {
    announce_found(r.id);  // bufferer found: stop the search (§3.3)
  } else if (answer == Answer::kUnanswered) {
    // Discarded here too: join the search on the requester's behalf.
    start_search(r.id, r.remote_requester, /*direct=*/false);
  }
}

void Endpoint::send_repair(MemberId to, const proto::Data& d, bool remote) {
  metrics_.on_repair_sent(self(), d.id, remote, host_.now());
  host_.send(to, proto::Message{proto::Repair{d.id, d.payload, remote}});
}

void Endpoint::serve_waiters(const proto::Data& d) {
  auto it = waiters_.find(d.id);
  if (it == waiters_.end()) return;
  for (MemberId w : it->second) send_repair(w, d, /*remote=*/true);
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
  for (MemberId rr : all) send_repair(rr, d, /*remote=*/true);
  cancel(task.timer);
  searches_.erase(it);
  // Stop everyone else still searching on our behalf.
  announce_found(d.id);
}

// ---------------------------------------------------- repair handlers ----

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
  accept(d);
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
    metrics_.on_relay_suppressed(self(), r.id, host_.now());
  }
  if (tracker(r.id.source).has(r.id.seq)) return;
  accept(proto::Data{r.id, r.payload});
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
    metrics_.on_relay_suppressed(self(), f.id, host_.now());
  }
  end_search(f.id, f.holder);
}

// ----------------------------------------------------------- recovery ----

void Endpoint::start_recovery(const MessageId& id, std::uint32_t escalate_hop) {
  if (!active_ || !cfg_.gap_driven_recovery) return;
  if (tracker(id.source).has(id.seq)) return;
  if (recoveries_.count(id)) return;
  RecoveryTask task;
  task.started = host_.now();
  task.escalate_hop = escalate_hop;
  recoveries_.emplace(id, task);
  metrics_.on_loss_detected(self(), id, host_.now());
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
  if (hash_policy_ != nullptr) {
    // Deterministic scheme [11]: ask the hash-selected bufferers directly,
    // round-robin over the set across attempts.
    const std::vector<MemberId>& set = selector_.select(
        id, host_.local_view().members(), hash_policy_->params().k);
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
    task.local_timer = host_.schedule(host_.rtt_estimate(self()),
                                      [this, id] { local_attempt(id); });
    return;
  }
  ++task.local_attempts;
  metrics_.on_request_sent(self(), id, /*remote=*/false, host_.now());
  if (cfg_.measure_rtt) probes_[id].try_emplace(q, host_.now());
  host_.send(q, proto::Message{proto::LocalRequest{id, self()}});
  task.local_timer = host_.schedule(
      retry_backoff(request_timeout(q), task.local_attempts - 1),
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
      metrics_.on_request_sent(self(), id, /*remote=*/true, host_.now());
      host_.send(up,
                 proto::Message{proto::Escalate{id, self(), task.escalate_hop}});
    } else if (id.source != self()) {
      // Root of the repair tree: last resort is the original sender.
      up = id.source;
      metrics_.on_request_sent(self(), id, /*remote=*/true, host_.now());
      host_.send(up, proto::Message{proto::RemoteRequest{id, self()}});
    } else {
      return;  // we are the sender and the root — nobody above us
    }
    task.remote_timer = host_.schedule(
        retry_backoff(request_timeout(up), task.remote_attempts - 1),
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
    if (hash_policy_ != nullptr) {
      const std::vector<MemberId>& set =
          selector_.select(id, parent.members(), hash_policy_->params().k);
      if (!set.empty()) r = set[task.remote_attempts % set.size()];
    }
    metrics_.on_request_sent(self(), id, /*remote=*/true, host_.now());
    host_.send(r, proto::Message{proto::RemoteRequest{id, self()}});
  }
  task.remote_timer =
      host_.schedule(request_timeout(r), [this, id] { remote_attempt(id); });
}

// -------------------------------------------------------- repair tree ----

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
    local_rep_ = repair::elect_representative(members, view_gen_);
  } else {
    rep_scratch_.clear();
    for (MemberId m : members) {
      if (!std::binary_search(flow_unreachable_.begin(),
                              flow_unreachable_.end(), m)) {
        rep_scratch_.push_back(m);
      }
    }
    local_rep_ = repair::elect_representative(rep_scratch_, view_gen_);
  }
  parent_rep_ =
      repair::elect_representative(host_.parent_view().members(), view_gen_);
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
  if (!cfg_.hierarchy.enabled) return base;
  std::uint32_t shift = std::min(attempts, repair::kMaxBackoffShift);
  return base * static_cast<std::int64_t>(std::uint64_t{1} << shift);
}

// ------------------------------------------------------------- search ----

bool Endpoint::search_abandoned(const MessageId& id) {
  auto it = search_given_up_.find(id);
  if (it == search_given_up_.end()) return false;
  if (host_.now() - it->second > kSearchCacheTtl) {
    search_given_up_.erase(it);
    return false;
  }
  return true;
}

void Endpoint::start_search(const MessageId& id, MemberId requester,
                            bool direct) {
  if (search_abandoned(id)) return;  // recently exhausted max_attempts
  auto it = searches_.find(id);
  if (it != searches_.end()) {
    if (!contains(it->second.carry, requester)) {
      it->second.carry.push_back(requester);
    }
    if (direct && !contains(it->second.own, requester)) {
      it->second.own.push_back(requester);
    }
    return;  // already probing; our retry timer is running
  }
  SearchTask task;
  task.started = host_.now();
  task.carry.push_back(requester);
  if (direct) task.own.push_back(requester);
  searches_.emplace(id, std::move(task));
  metrics_.on_search_started(self(), id, host_.now());
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
  metrics_.on_search_hop(self(), q, id, host_.now());
  host_.send(q, proto::Message{proto::SearchRequest{id, task.carry.front()}});
  task.timer =
      host_.schedule(request_timeout(q), [this, id] { search_attempt(id); });
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
      static_cast<double>(kQueryBackoffUnit.us()) * cfg_.query_backoff_c;
  Duration delay = Duration::micros(
      static_cast<std::int64_t>(host_.rng().uniform_real(0.0, window_us)));
  PendingReply reply;
  reply.requester = requester;
  reply.timer = host_.schedule(delay, [this, id] { fire_query_reply(id); });
  pending_replies_.emplace(id, std::move(reply));
}

void Endpoint::fire_query_reply(const MessageId& id) {
  auto it = pending_replies_.find(id);
  if (it == pending_replies_.end()) return;
  MemberId requester = it->second.requester;
  pending_replies_.erase(it);
  std::optional<proto::Data> d = store_->get(id);
  if (!d) return;  // discarded while backing off
  send_repair(requester, *d, /*remote=*/true);
  // Count every fired back-off reply as a completed-search announcement;
  // duplicates that the window failed to suppress are the "implosion".
  metrics_.on_search_completed(self(), id, host_.now());
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
  metrics_.on_search_completed(self(), id, now);
  host_.multicast_region(proto::Message{proto::SearchFound{id, self()}});
}

MemberId Endpoint::cached_holder(const MessageId& id) {
  auto it = found_cache_.find(id);
  if (it == found_cache_.end()) return kInvalidMember;
  if (host_.now() - it->second.second > kSearchCacheTtl) {
    found_cache_.erase(it);
    return kInvalidMember;
  }
  return it->second.first;
}

void Endpoint::remember_holder(const MessageId& id, MemberId holder) {
  found_cache_[id] = {holder, host_.now()};
  search_given_up_.erase(id);  // a holder exists after all
}

// ----------------------------------------------------- regional relay ----

void Endpoint::schedule_regional_relay(const proto::Data& d) {
  if (host_.local_view().size() <= 1) return;
  if (pending_relays_.count(d.id)) return;
  if (cfg_.regional_backoff <= Duration::zero()) {
    metrics_.on_regional_multicast(self(), d.id, host_.now());
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
  relay.timer =
      host_.schedule(delay, [this, id = d.id] { fire_regional_relay(id); });
  pending_relays_.emplace(d.id, std::move(relay));
}

void Endpoint::fire_regional_relay(const MessageId& id) {
  auto it = pending_relays_.find(id);
  if (it == pending_relays_.end()) return;
  proto::Data d = std::move(it->second.data);
  pending_relays_.erase(it);
  metrics_.on_regional_multicast(self(), id, host_.now());
  host_.multicast_region(
      proto::Message{proto::RegionalRepair{d.id, std::move(d.payload), self()}});
}

// ------------------------------------------------------- anti-entropy ----

void Endpoint::anti_entropy_tick() {
  anti_entropy_timer_ = kNoTimer;
  // One digest to one uniformly random neighbor per round ([3]).
  MemberId q = host_.local_view().pick_random(host_.rng(), self());
  if (q != kInvalidMember) {
    proto::History h = build_history();
    if (!h.sources.empty()) host_.send(q, proto::Message{std::move(h)});
  }
  anti_entropy_timer_ = host_.schedule(cfg_.anti_entropy_interval,
                                       [this] { anti_entropy_tick(); });
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
         seq <= sender_max && pulls < kAntiEntropyMaxPulls; ++seq) {
      if (tr.has(seq) || !sender_has(seq)) continue;
      // Record that the sequence exists (no gap-driven task is spawned when
      // that engine is off) and pull it straight from the digest's sender.
      (void)tr.observe_hint(seq);
      ++pulls;
      MessageId id{sh.source, seq};
      metrics_.on_request_sent(self(), id, /*remote=*/false, host_.now());
      host_.send(from, proto::Message{proto::LocalRequest{id, self()}});
    }
  }
}

}  // namespace rrmp

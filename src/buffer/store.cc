#include "buffer/store.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "proto/codec.h"

namespace rrmp::buffer {
namespace {

struct IdLess {
  bool operator()(const auto& entry, const MessageId& id) const {
    return entry.id < id;
  }
};

}  // namespace

BufferStore::BufferStore(std::unique_ptr<RetentionPolicy> policy,
                         BufferBudget budget, CoordinationParams coordination)
    : policy_(std::move(policy)), budget_(budget), coordination_(coordination) {
  if (policy_ == nullptr) {
    throw std::invalid_argument("BufferStore: null policy");
  }
}

BufferStore::~BufferStore() = default;

void BufferStore::bind(PolicyEnv* env) {
  if (env == nullptr) throw std::invalid_argument("BufferStore::bind: null env");
  if (env_ != nullptr) throw std::logic_error("BufferStore::bind: already bound");
  env_ = env;
  policy_->bind(this, env);
}

Admission BufferStore::store(const proto::Data& msg) {
  return insert(msg, /*via_handoff=*/false);
}

Admission BufferStore::accept_handoff(const proto::Data& msg) {
  return insert(msg, /*via_handoff=*/true);
}

Admission BufferStore::insert(const proto::Data& msg, bool via_handoff) {
  assert(env_ != nullptr);
  assert(msg.cursors.empty());  // stored copies are core frames
  auto it = std::lower_bound(entries_.begin(), entries_.end(), msg.id, IdLess{});
  if (it != entries_.end() && it->id == msg.id) {
    if (via_handoff && !it->long_term) {
      // A handed-off copy upgrades a short-term entry: the leaver was a
      // long-term bufferer, so the responsibility transfers to us.
      it->via_handoff = true;
      promote_long_term(msg.id);
    }
    return Admission::kDuplicate;
  }
  std::size_t size = proto::encoded_size(msg);
  if (!make_room(size)) {
    ++stats_.rejected;
    return Admission::kRejected;
  }
  // make_room only mutates through discard(), which keeps the vector sorted,
  // so re-searching yields the (possibly shifted) insertion point.
  it = std::lower_bound(entries_.begin(), entries_.end(), msg.id, IdLess{});
  it = entries_.insert(it, Entry{});
  Entry& e = *it;
  e.id = msg.id;
  e.payload = msg.payload;
  e.bytes = size;
  e.stored_at = env_->now();
  e.last_activity = e.stored_at;
  e.via_handoff = via_handoff;
  bytes_ += size;
  ++stats_.stored;
  stats_.peak_count = std::max(stats_.peak_count, entries_.size());
  stats_.peak_bytes = std::max(stats_.peak_bytes, bytes_);
  notify(msg.id, BufferEvent::kStored, /*long_term=*/false);
  if (via_handoff) {
    policy_->on_handoff(msg.id);
  } else {
    policy_->on_stored(msg.id);
  }
  return Admission::kStored;
}

bool BufferStore::make_room(std::size_t incoming_bytes) {
  if (budget_.unlimited()) return true;
  if (budget_.max_bytes != 0 && incoming_bytes > budget_.max_bytes) {
    return false;  // can never fit, even with an empty buffer
  }
  EvictionDemand need;
  if (budget_.max_bytes != 0 && bytes_ + incoming_bytes > budget_.max_bytes) {
    need.bytes = bytes_ + incoming_bytes - budget_.max_bytes;
  }
  if (budget_.max_count != 0 && entries_.size() + 1 > budget_.max_count) {
    need.entries = entries_.size() + 1 - budget_.max_count;
  }
  if (need.bytes == 0 && need.entries == 0) return true;

  auto apply_plan = [this, &need](const EvictionPlan& plan) {
    for (const MessageId& victim : plan.victims) {
      if (need.bytes == 0 && need.entries == 0) break;
      const Entry* e = find(victim);
      if (e == nullptr) continue;  // plan may name already-departed ids
      std::size_t freed = e->bytes;
      remove_victim(victim);
      need.bytes -= std::min(need.bytes, freed);
      need.entries -= std::min<std::size_t>(need.entries, 1);
    }
  };
  apply_plan(policy_->pick_victims(need));
  if (need.bytes != 0 || need.entries != 0) {
    // The policy's plan under-delivered (custom policies may hold entries
    // back). Fall back to the deterministic base ordering so admission
    // never fails for a message that fits an empty budget.
    apply_plan(policy_->RetentionPolicy::pick_victims(need));
  }
  return need.bytes == 0 && need.entries == 0;
}

void BufferStore::remove_victim(const MessageId& victim) {
  // A sole copy under pressure moves to the least-loaded advertised
  // neighbor instead of dying, when coordination permits and a transport is
  // wired up. Everything else (and every fallback) is a plain eviction.
  //
  // Anti-ping-pong damping: a copy that itself arrived via handoff/shed
  // must age one digest period before it can be shed onward. Without the
  // gate, two saturated members ping-pong transferred sole copies at
  // network RTT rate forever; with it, every copy makes at most one hop
  // per digest period after its first, and each hop re-decides against
  // fresh digests. Locally-received copies shed freely — the first hop is
  // where the recovery value is, and the receiver admits them as
  // handoff-provenance, closing the cycle.
  if (coordination_.enabled && shed_handler_ &&
      digests_.holders_of(victim) == 0) {
    const Entry* e = find(victim);
    if (e != nullptr &&
        (!e->via_handoff ||
         env_->now() - e->stored_at >= coordination_.digest_interval)) {
      MemberId target =
          digests_.least_loaded(env_->region_members(), env_->self());
      if (target != kInvalidMember && shed_handler_(frame(*e), target)) {
        discard(victim, BufferEvent::kShedHandoff);
        return;
      }
    }
  }
  discard(victim, BufferEvent::kEvicted);
}

std::size_t BufferStore::known_replicas(const MessageId& id) const {
  if (find(id) == nullptr) return 0;
  return 1 + digests_.holders_of(id);
}

proto::BufferDigest BufferStore::build_digest() const {
  proto::BufferDigest d;
  d.member = env_->self();
  d.bytes_in_use = bytes_;
  for (const Entry& e : entries_) {  // ascending id order
    if (!d.ranges.empty()) {
      proto::DigestRange& last = d.ranges.back();
      if (last.source == e.id.source &&
          e.id.seq == last.first_seq + last.count) {
        ++last.count;
        continue;
      }
    }
    d.ranges.push_back({e.id.source, e.id.seq, 1});
  }
  return d;
}

void BufferStore::on_request_seen(const MessageId& id) {
  Entry* e = find(id);
  if (e == nullptr) return;
  e->last_activity = env_->now();
  policy_->on_request_seen(id);
}

std::vector<proto::Data> BufferStore::drain_for_handoff() {
  // Default: transfer only long-term entries (paper §3.2 — "transfers each
  // message in its long-term buffer"). Short-term copies are redundant by
  // definition: requests for them are still being answered region-wide.
  // Repair-server policies hand over the whole archive instead.
  bool all = policy_->handoff_includes_short_term();
  std::vector<MessageId> ids;
  for (const Entry& e : entries_) {
    if (all || e.long_term) ids.push_back(e.id);
  }
  std::vector<proto::Data> out;
  out.reserve(ids.size());
  for (const MessageId& id : ids) {
    Entry* e = find(id);
    out.push_back({id, std::move(e->payload)});
    discard(id, BufferEvent::kHandedOff);
  }
  return out;
}

std::optional<proto::Data> BufferStore::get(const MessageId& id) const {
  const Entry* e = find(id);
  if (e == nullptr) return std::nullopt;
  return frame(*e);
}

bool BufferStore::is_long_term(const MessageId& id) const {
  const Entry* e = find(id);
  return e != nullptr && e->long_term;
}

std::optional<BufferStore::EntryView> BufferStore::view(
    const MessageId& id) const {
  const Entry* e = find(id);
  if (e == nullptr) return std::nullopt;
  return view_of(*e);
}

void BufferStore::for_each_entry(
    const std::function<void(const EntryView&)>& fn) const {
  for (const Entry& e : entries_) fn(view_of(e));
}

BufferStore::EntryView BufferStore::view_of(const Entry& e) {
  return EntryView{e.id,           e.bytes,     e.stored_at,
                   e.last_activity, e.long_term, e.timer};
}

void BufferStore::touch(const MessageId& id) {
  Entry* e = find(id);
  if (e != nullptr) e->last_activity = env_->now();
}

void BufferStore::promote_long_term(const MessageId& id) {
  Entry* e = find(id);
  if (e == nullptr || e->long_term) return;
  e->long_term = true;
  ++stats_.promoted_long_term;
  notify(id, BufferEvent::kPromotedLongTerm, /*long_term=*/true);
}

void BufferStore::discard(const MessageId& id, BufferEvent reason) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id, IdLess{});
  if (it == entries_.end() || it->id != id) return;
  Entry& e = *it;
  env_->cancel(e.timer);
  bytes_ -= e.bytes;
  stats_.total_buffer_time += env_->now() - e.stored_at;
  bool was_long_term = e.long_term;
  switch (reason) {
    case BufferEvent::kHandedOff: ++stats_.handed_off; break;
    case BufferEvent::kEvicted: ++stats_.evicted; break;
    case BufferEvent::kShedHandoff: ++stats_.shed; break;
    default: ++stats_.discarded; break;
  }
  entries_.erase(it);
  notify(id, reason, was_long_term);
}

void BufferStore::arm(const MessageId& id, Duration delay, sim::Callback fn) {
  Entry* e = find(id);
  if (e == nullptr) return;
  env_->cancel(e->timer);
  e->timer = env_->schedule(delay, std::move(fn));
}

void BufferStore::cancel_timers() {
  for (const Entry& e : entries_) env_->cancel(e.timer);
}

BufferStore::Entry* BufferStore::find(const MessageId& id) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id, IdLess{});
  return (it != entries_.end() && it->id == id) ? &*it : nullptr;
}

const BufferStore::Entry* BufferStore::find(const MessageId& id) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id, IdLess{});
  return (it != entries_.end() && it->id == id) ? &*it : nullptr;
}

void BufferStore::notify(const MessageId& id, BufferEvent ev, bool long_term) {
  if (observer_) observer_(id, ev, long_term);
}

}  // namespace rrmp::buffer

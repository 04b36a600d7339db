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

struct Candidate {
  MessageId id;
  std::size_t bytes;
  TimePoint last_activity;
  bool long_term;
  /// Expendability rank from the coordination cost model: 0 for protected
  /// entries (sole copies, designated keepers, everything when coordination
  /// is off — the comparator then degenerates to the uncoordinated order),
  /// otherwise the entry's known regional replica count, so the most
  /// replicated redundant entry is evicted first.
  std::size_t replica_rank = 0;
};

/// The deterministic expendability order (BufferStore::pick_victims).
bool more_expendable(const Candidate& a, const Candidate& b) {
  if (a.replica_rank != b.replica_rank) return a.replica_rank > b.replica_rank;
  if (a.long_term != b.long_term) return !a.long_term;
  if (a.last_activity != b.last_activity) {
    return a.last_activity < b.last_activity;
  }
  return a.id < b.id;
}

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
  if (incoming_bytes > budget_.max_bytes) {
    return false;  // can never fit, even with an empty buffer
  }
  if (bytes_ + incoming_bytes <= budget_.max_bytes) return true;
  for (const MessageId& victim :
       pick_victims(bytes_ + incoming_bytes - budget_.max_bytes)) {
    remove_victim(victim);
  }
  return true;
}

std::vector<MessageId> BufferStore::pick_victims(std::size_t need) const {
  auto candidate = [](const Entry& e) {
    return Candidate{e.id, e.bytes, e.last_activity, e.long_term};
  };
  std::vector<Candidate> candidates;
  if (coordination_.enabled) {
    // One pass over the digest table (holder_infos) ranks every entry; the
    // snapshot feeds both the single-victim fast path (min, no sort) and,
    // only when the demand needs more, the full sort. An entry is
    // expendable only when it is redundant AND this member is not its
    // keeper: the keeper election stops all holders of a redundant entry
    // from evicting it at once.
    std::vector<MessageId> ids;
    ids.reserve(entries_.size());
    for (const Entry& e : entries_) ids.push_back(e.id);  // ascending
    std::vector<DigestTable::HolderInfo> infos;
    digests_.holder_infos(ids, env_->self(), infos);
    candidates.reserve(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      candidates.push_back(candidate(entries_[i]));
      // Only stored entries are ranked, so our copy always counts.
      std::size_t replicas = 1 + infos[i].holders;
      if (replicas >= kRedundancyThreshold && !infos[i].keeper) {
        candidates.back().replica_rank = replicas;
      }
    }
    if (candidates.empty()) return {};
    const Candidate& best = *std::min_element(
        candidates.begin(), candidates.end(), more_expendable);
    if (best.bytes >= need) return {best.id};
  } else {
    // The steady state (incoming message ~= evicted message): one
    // allocation-free pass finds the most expendable entry; if it covers
    // the demand, that is the whole answer. Only multi-victim demands pay
    // for a snapshot and a sort.
    const Entry* best = nullptr;
    for (const Entry& e : entries_) {
      if (best == nullptr || more_expendable(candidate(e), candidate(*best))) {
        best = &e;
      }
    }
    if (best == nullptr) return {};
    if (best->bytes >= need) return {best->id};
    candidates.reserve(entries_.size());
    for (const Entry& e : entries_) candidates.push_back(candidate(e));
  }
  std::sort(candidates.begin(), candidates.end(), more_expendable);
  std::vector<MessageId> victims;
  std::size_t freed = 0;
  for (const Candidate& c : candidates) {
    if (freed >= need) break;
    victims.push_back(c.id);
    freed += c.bytes;
  }
  return victims;
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
  std::vector<proto::DigestRange> ranges;
  for (const Entry& e : entries_) {  // ascending id order
    if (!ranges.empty()) {
      proto::DigestRange& last = ranges.back();
      if (last.source == e.id.source &&
          e.id.seq == last.first_seq + last.count) {
        ++last.count;
        continue;
      }
    }
    ranges.push_back({e.id.source, e.id.seq, 1});
  }
  proto::BufferDigest d;
  d.member = env_->self();
  d.bytes_in_use = bytes_;
  d.ranges = std::move(ranges);  // no copy: the runs are built once
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

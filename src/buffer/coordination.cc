#include "buffer/coordination.h"

#include <algorithm>

#include "buffer/hash_based.h"

namespace rrmp::buffer {

void DigestTable::update(MemberId peer, std::uint64_t bytes_in_use,
                         std::vector<proto::DigestRange> ranges,
                         std::uint64_t window_outstanding) {
  PeerDigest& d = peers_[peer];
  d.bytes_in_use = bytes_in_use;
  d.window_outstanding = window_outstanding;
  d.missed = 0;  // a fresh advertisement restarts the aging clock
  d.ranges = std::move(ranges);
}

void DigestTable::forget(MemberId peer) { peers_.erase(peer); }

void DigestTable::retain(const std::vector<MemberId>& alive) {
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (std::find(alive.begin(), alive.end(), it->first) == alive.end()) {
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t DigestTable::age() {
  std::size_t dropped = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (++it->second.missed > kMaxMissedDigests) {
      it = peers_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

namespace {

// Overflow-safe containment: id.seq in [first_seq, first_seq + count).
bool range_holds(const proto::DigestRange& r, const MessageId& id) {
  return r.source == id.source && id.seq >= r.first_seq &&
         id.seq - r.first_seq < r.count;
}

}  // namespace

std::size_t DigestTable::holders_of(const MessageId& id) const {
  std::size_t holders = 0;
  for (const auto& [peer, d] : peers_) {
    for (const proto::DigestRange& r : d.ranges) {
      if (range_holds(r, id)) {
        ++holders;
        break;
      }
    }
  }
  return holders;
}

bool DigestTable::keeper_is(const MessageId& id, MemberId self) const {
  return holder_info(id, self).keeper;
}

DigestTable::HolderInfo DigestTable::holder_info(const MessageId& id,
                                                 MemberId self) const {
  HolderInfo info;
  std::uint64_t own = hash_score(id, self);
  for (const auto& [peer, d] : peers_) {
    for (const proto::DigestRange& r : d.ranges) {
      if (range_holds(r, id)) {
        ++info.holders;
        std::uint64_t score = hash_score(id, peer);
        // Tie-break by member id, matching hash_bufferers' ordering.
        if (score < own || (score == own && peer < self)) info.keeper = false;
        break;
      }
    }
  }
  return info;
}

std::uint64_t DigestTable::advertised_bytes(MemberId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.bytes_in_use;
}

std::uint64_t DigestTable::advertised_outstanding(MemberId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.window_outstanding;
}

std::uint64_t DigestTable::region_outstanding() const {
  std::uint64_t total = 0;
  for (const auto& [peer, d] : peers_) total += d.window_outstanding;
  return total;
}

MemberId DigestTable::least_loaded(const std::vector<MemberId>& alive,
                                   MemberId exclude) const {
  MemberId best = kInvalidMember;
  std::uint64_t best_bytes = 0;
  for (const auto& [peer, d] : peers_) {  // ascending id: deterministic ties
    if (peer == exclude) continue;
    if (std::find(alive.begin(), alive.end(), peer) == alive.end()) continue;
    if (best == kInvalidMember || d.bytes_in_use < best_bytes) {
      best = peer;
      best_bytes = d.bytes_in_use;
    }
  }
  return best;
}

}  // namespace rrmp::buffer

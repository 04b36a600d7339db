#include "buffer/coordination.h"

#include <algorithm>

#include "buffer/hash_based.h"

namespace rrmp::buffer {

std::vector<DigestTable::Row>::const_iterator DigestTable::find(
    MemberId peer) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), peer);
  return it != rows_.end() && it->peer == peer ? it : rows_.end();
}

void DigestTable::update(MemberId peer, std::uint64_t bytes_in_use,
                         SharedArray<proto::DigestRange> ranges) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), peer);
  if (it == rows_.end() || it->peer != peer) {
    it = rows_.insert(it, Row{});
    it->peer = peer;
  }
  it->bytes_in_use = bytes_in_use;
  it->missed = 0;  // a fresh advertisement restarts the aging clock
  it->ranges = std::move(ranges);
}

SharedArray<proto::DigestRange> DigestTable::ranges_of(MemberId peer) const {
  auto it = find(peer);
  return it != rows_.end() ? it->ranges : SharedArray<proto::DigestRange>{};
}

void DigestTable::forget(MemberId peer) {
  auto it = find(peer);
  if (it != rows_.end()) rows_.erase(it);
}

void DigestTable::retain(const std::vector<MemberId>& alive) {
  std::erase_if(rows_, [&alive](const Row& row) {
    return !std::binary_search(alive.begin(), alive.end(), row.peer);
  });
}

std::size_t DigestTable::age() {
  for (Row& row : rows_) ++row.missed;
  return std::erase_if(
      rows_, [](const Row& row) { return row.missed > kMaxMissedDigests; });
}

namespace {

// Overflow-safe containment: id.seq in [first_seq, first_seq + count).
bool range_holds(const proto::DigestRange& r, const MessageId& id) {
  return r.source == id.source && id.seq >= r.first_seq &&
         id.seq - r.first_seq < r.count;
}

// Does `peer`, advertising `id`, beat `self` (whose score is `own`) in the
// keeper election? Ties break by member id, matching hash_bufferers'
// ordering.
bool outranks(const MessageId& id, MemberId peer, std::uint64_t own,
              MemberId self) {
  std::uint64_t score = hash_score(id, peer);
  return score < own || (score == own && peer < self);
}

}  // namespace

std::size_t DigestTable::holders_of(const MessageId& id) const {
  std::size_t holders = 0;
  for (const Row& row : rows_) {
    for (const proto::DigestRange& r : row.ranges) {
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
  for (const Row& row : rows_) {
    for (const proto::DigestRange& r : row.ranges) {
      if (range_holds(r, id)) {
        ++info.holders;
        if (info.keeper && outranks(id, row.peer, own, self)) {
          info.keeper = false;
        }
        break;
      }
    }
  }
  return info;
}

void DigestTable::holder_infos(const std::vector<MessageId>& ids,
                               MemberId self,
                               std::vector<HolderInfo>& out) const {
  out.assign(ids.size(), HolderInfo{});
  // Per id: self's rendezvous score, and the last row that counted the id,
  // so a row whose wire ranges overlap counts its peer once per id.
  struct Tally {
    std::uint64_t own = 0;
    const Row* row = nullptr;
  };
  std::vector<Tally> tally(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tally[i].own = hash_score(ids[i], self);
  }
  for (const Row& row : rows_) {
    for (const proto::DigestRange& r : row.ranges) {
      auto it = std::lower_bound(ids.begin(), ids.end(),
                                 MessageId{r.source, r.first_seq});
      for (; it != ids.end() && range_holds(r, *it); ++it) {
        auto i = static_cast<std::size_t>(it - ids.begin());
        if (tally[i].row == &row) continue;
        tally[i].row = &row;
        ++out[i].holders;
        if (out[i].keeper && outranks(*it, row.peer, tally[i].own, self)) {
          out[i].keeper = false;
        }
      }
    }
  }
}

MemberId DigestTable::least_loaded(const std::vector<MemberId>& alive,
                                   MemberId exclude) const {
  MemberId best = kInvalidMember;
  std::uint64_t best_bytes = 0;
  for (const Row& row : rows_) {  // ascending id: deterministic ties
    if (row.peer == exclude) continue;
    if (!std::binary_search(alive.begin(), alive.end(), row.peer)) continue;
    if (best == kInvalidMember || row.bytes_in_use < best_bytes) {
      best = row.peer;
      best_bytes = row.bytes_in_use;
    }
  }
  return best;
}

}  // namespace rrmp::buffer

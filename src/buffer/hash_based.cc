#include "buffer/hash_based.h"

#include <algorithm>

namespace rrmp::buffer {

std::uint64_t hash_score(const MessageId& id, MemberId member) {
  // Mix the three words through splitmix64-style finalization.
  std::uint64_t x = (static_cast<std::uint64_t>(id.source) << 32) ^ id.seq;
  x ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(member) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

const std::vector<MemberId>& BuffererSelector::select(
    const MessageId& id, const std::vector<MemberId>& members, std::size_t k) {
  out_.clear();
  if (k == 0 || members.empty()) return out_;
  scored_.clear();
  for (MemberId m : members) scored_.emplace_back(hash_score(id, m), m);
  k = std::min(k, scored_.size());
  std::nth_element(scored_.begin(),
                   scored_.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   scored_.end());
  scored_.resize(k);
  std::sort(scored_.begin(), scored_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  out_.reserve(k);
  for (const auto& [score, m] : scored_) out_.push_back(m);
  return out_;
}

bool BuffererSelector::selects(const MessageId& id,
                               const std::vector<MemberId>& members,
                               std::size_t k, MemberId member) {
  if (k == 0 || members.empty()) return false;
  if (k >= members.size()) {
    return std::find(members.begin(), members.end(), member) != members.end();
  }
  // `member` is selected iff fewer than k members score strictly below it
  // (scores are 64-bit hashes; ties are negligible but broken identically
  // to nth_element's value ordering on the full pair).
  std::pair<std::uint64_t, MemberId> mine{hash_score(id, member), member};
  std::size_t below = 0;
  bool present = false;
  for (MemberId m : members) {
    if (m == member) {
      present = true;
      continue;
    }
    if (std::pair<std::uint64_t, MemberId>{hash_score(id, m), m} < mine) {
      if (++below >= k) return false;
    }
  }
  return present;
}

std::vector<MemberId> hash_bufferers(const MessageId& id,
                                     const std::vector<MemberId>& members,
                                     std::size_t k) {
  BuffererSelector selector;
  return selector.select(id, members, k);
}

void HashBasedPolicy::on_stored(const MessageId& id) {
  if (selector_.selects(id, env().region_members(), params_.k,
                        env().self())) {
    store().promote_long_term(id);
  } else {
    store().arm(id, params_.grace, [this, id] { grace_expired(id); });
  }
}

void HashBasedPolicy::on_handoff(const MessageId& id) {
  store().promote_long_term(id);
}

void HashBasedPolicy::grace_expired(const MessageId& id) {
  // A handoff upgraded the entry to long-term while the grace countdown
  // was pending: the transfer's copy must survive the grace it was armed
  // with as a mere non-bufferer.
  if (!store().is_long_term(id)) store().discard(id);
}

}  // namespace rrmp::buffer

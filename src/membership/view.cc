#include "membership/view.h"

#include <algorithm>

namespace rrmp::membership {

RegionView::RegionView(std::vector<MemberId> members)
    : members_(std::move(members)) {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
}

bool RegionView::contains(MemberId m) const {
  return std::binary_search(members_.begin(), members_.end(), m);
}

void RegionView::add(MemberId m) {
  auto it = std::lower_bound(members_.begin(), members_.end(), m);
  if (it != members_.end() && *it == m) return;
  members_.insert(it, m);
}

void RegionView::remove(MemberId m) {
  auto it = std::lower_bound(members_.begin(), members_.end(), m);
  if (it == members_.end() || *it != m) return;
  members_.erase(it);
}

MemberId RegionView::pick_random(RandomEngine& rng, MemberId exclude) const {
  if (members_.empty()) return kInvalidMember;
  bool has_exclude = contains(exclude);
  std::size_t n = members_.size() - (has_exclude ? 1 : 0);
  if (n == 0) return kInvalidMember;
  auto idx = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  // Map the index over the view, skipping the excluded member.
  for (std::size_t i = 0, live = 0; i < members_.size(); ++i) {
    if (has_exclude && members_[i] == exclude) continue;
    if (live++ == idx) return members_[i];
  }
  return kInvalidMember;  // unreachable
}

std::vector<MemberId> RegionView::pick_random_distinct(RandomEngine& rng,
                                                       std::size_t k,
                                                       MemberId exclude) const {
  std::vector<MemberId> pool;
  pool.reserve(members_.size());
  for (MemberId m : members_) {
    if (m != exclude) pool.push_back(m);
  }
  if (k >= pool.size()) {
    rng.shuffle(pool);
    return pool;
  }
  std::vector<std::size_t> idx = rng.sample_indices(pool.size(), k);
  std::vector<MemberId> out;
  out.reserve(k);
  for (std::size_t i : idx) out.push_back(pool[i]);
  return out;
}

}  // namespace rrmp::membership

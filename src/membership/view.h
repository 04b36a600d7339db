// A member's view of one region: the set of members it believes are alive
// there. The paper assumes each receiver knows the membership of its own
// region and of its parent region (§2.1); views need not be perfectly
// accurate, only good enough that the group is not logically partitioned.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace rrmp::membership {

class RegionView {
 public:
  RegionView() = default;
  explicit RegionView(std::vector<MemberId> members);

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  bool contains(MemberId m) const;
  const std::vector<MemberId>& members() const { return members_; }

  void add(MemberId m);
  void remove(MemberId m);

  /// Uniformly random member, excluding `exclude` (pass kInvalidMember for
  /// no exclusion). Returns kInvalidMember when no candidate exists.
  MemberId pick_random(RandomEngine& rng, MemberId exclude = kInvalidMember) const;

  /// Up to k distinct random members excluding `exclude`.
  std::vector<MemberId> pick_random_distinct(RandomEngine& rng, std::size_t k,
                                             MemberId exclude = kInvalidMember) const;

  friend bool operator==(const RegionView&, const RegionView&) = default;

 private:
  std::vector<MemberId> members_;  // kept sorted for deterministic iteration
};

}  // namespace rrmp::membership

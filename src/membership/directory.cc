#include "membership/directory.h"

namespace rrmp::membership {

Directory::Directory(const net::Topology& topology) : topology_(topology) {
  alive_.assign(topology.member_count(), true);
  alive_count_ = topology.member_count();
  views_.reserve(topology.region_count());
  for (RegionId r = 0; r < topology.region_count(); ++r) {
    views_.emplace_back(topology.members_of(r));
  }
}

const RegionView& Directory::parent_view(RegionId r) const {
  std::optional<RegionId> p = topology_.parent_of(r);
  if (!p) return empty_view_;
  return views_.at(*p);
}

void Directory::set_alive(MemberId m, bool alive) {
  if (alive_.at(m) == alive) return;
  alive_[m] = alive;
  alive_count_ += alive ? 1 : static_cast<std::size_t>(-1);
  RegionId r = topology_.region_of(m);
  if (alive) {
    views_[r].add(m);
  } else {
    views_[r].remove(m);
  }
  ++version_;
}

}  // namespace rrmp::membership

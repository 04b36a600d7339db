// Membership directory: tracks which topology members are currently alive
// and materializes per-region views.
//
// It stands in for the membership the paper assumes (§2: each receiver
// knows its own and its parent region's members, kept by gossip failure
// detection [13]). Every SimHost and UdpRuntime member reads its views from
// here. Joins and graceful leaves go through here; crashes are marked by the
// harness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "membership/view.h"
#include "net/topology.h"

namespace rrmp::membership {

class Directory {
 public:
  /// All topology members start alive.
  explicit Directory(const net::Topology& topology);

  bool alive(MemberId m) const { return alive_.at(m); }
  std::size_t alive_count() const { return alive_count_; }

  /// Graceful leave and crash are identical from the directory's point of
  /// view (the difference — buffer handoff — happens at the protocol layer).
  void mark_left(MemberId m) { set_alive(m, false); }
  void mark_failed(MemberId m) { set_alive(m, false); }
  void mark_joined(MemberId m) { set_alive(m, true); }

  /// Alive members of `r`.
  const RegionView& region_view(RegionId r) const { return views_.at(r); }

  /// Alive members of r's parent region; empty view if r is a root.
  const RegionView& parent_view(RegionId r) const;

  RegionId region_of(MemberId m) const { return topology_.region_of(m); }
  const net::Topology& topology() const { return topology_; }

  /// Bumped on every membership change.
  std::uint64_t version() const { return version_; }

  using Listener = std::function<void(MemberId member, bool now_alive)>;
  void subscribe(Listener fn) { listeners_.push_back(std::move(fn)); }

 private:
  void set_alive(MemberId m, bool alive);

  const net::Topology& topology_;
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
  std::vector<RegionView> views_;  // indexed by RegionId
  RegionView empty_view_;
  std::uint64_t version_ = 1;
  std::vector<Listener> listeners_;
};

}  // namespace rrmp::membership

// Group topology: members grouped into local regions, regions organized into
// an error-recovery hierarchy by distance from the sender (paper §2.1).
//
// Latency model: one-way delay between two members of the same region is
// intra_rtt/2; across regions it sums the per-hop one-way delays (default
// 50 ms per hop — "much higher than the latency within a region") along the
// hierarchy path to the lowest common ancestor, so deep subtrees are
// genuinely farther apart. An explicit pair override short-circuits the sum.
// The topology is immutable once built; liveness/joins/leaves are tracked by
// the membership directory, not here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace rrmp::net {

class Topology {
 public:
  /// Adds a region. `parent` must already exist (or nullopt for a root).
  /// `intra_rtt` is the round-trip time between any two members inside it.
  RegionId add_region(std::string name, std::optional<RegionId> parent,
                      Duration intra_rtt = Duration::millis(10));

  /// Adds one member to `region`; returns its dense id.
  MemberId add_member(RegionId region);

  /// Adds `count` members to `region`; returns their ids in order.
  std::vector<MemberId> add_members(RegionId region, std::size_t count);

  /// Symmetric one-way latency override between two regions.
  void set_inter_latency(RegionId a, RegionId b, Duration one_way);

  /// One-way latency used for region pairs without an explicit override.
  void set_default_inter_latency(Duration one_way) {
    default_inter_one_way_ = one_way;
  }

  std::size_t member_count() const { return member_region_.size(); }
  std::size_t region_count() const { return regions_.size(); }

  RegionId region_of(MemberId m) const { return member_region_.at(m); }
  std::optional<RegionId> parent_of(RegionId r) const;

  /// One-way latency of the edge from `r` to its parent (explicit override
  /// for that pair if set, else the default). Roots have no parent edge.
  Duration parent_edge_latency(RegionId r) const;

  const std::string& region_name(RegionId r) const {
    return regions_.at(r).name;
  }
  const std::vector<MemberId>& members_of(RegionId r) const {
    return regions_.at(r).members;
  }
  Duration intra_rtt(RegionId r) const { return regions_.at(r).intra_rtt; }

  /// One-way propagation delay from `from` to `to`.
  Duration one_way_latency(MemberId from, MemberId to) const;

  /// Round-trip time estimate between two members (2x one-way).
  Duration rtt(MemberId a, MemberId b) const {
    return one_way_latency(a, b) * 2;
  }

  /// Conservative lower bound on the one-way latency between members of any
  /// two distinct regions: the minimum over all hierarchy edges, explicit
  /// pair overrides, and (with two or more roots) the root-bridge default.
  /// Every cross-region path is either a single override or a sum of edges,
  /// so no path can undercut this — it is the sharded harness's safe epoch
  /// window. Duration::infinite() for single-region topologies.
  Duration min_cross_region_latency() const;

  /// Explicit symmetric override for the pair, if one was set.
  std::optional<Duration> inter_override(RegionId a, RegionId b) const;

 private:
  struct Region {
    std::string name;
    std::optional<RegionId> parent;
    Duration intra_rtt;
    std::vector<MemberId> members;
    std::size_t depth = 0;  // hops to the root of this region's tree
  };

  Duration inter_one_way(RegionId a, RegionId b) const;

  std::vector<Region> regions_;
  std::vector<RegionId> member_region_;  // indexed by MemberId
  // Sparse symmetric override map keyed by (min, max) region pair.
  std::vector<std::pair<std::pair<RegionId, RegionId>, Duration>> inter_overrides_;
  Duration default_inter_one_way_ = Duration::millis(50);
};

/// Convenience builder for the common benchmark shape: `region_sizes[i]`
/// members in region i, region 0 the root, region i>0 parented on
/// `parents[i]` (defaults: all parented on region 0).
Topology make_hierarchy(const std::vector<std::size_t>& region_sizes,
                        Duration intra_rtt = Duration::millis(10),
                        Duration inter_one_way = Duration::millis(50),
                        const std::vector<RegionId>* parents = nullptr);

}  // namespace rrmp::net

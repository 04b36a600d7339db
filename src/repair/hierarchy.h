// Hierarchical repair trees: knobs and representative election.
//
// The paper's remote recovery samples a *random* parent-region member per
// attempt (§2.2). At million-member scale that sampling turns every lost
// multicast into a storm of independent cross-region requests. The repair
// tree replaces it with deterministic aggregation points: each region elects
// one *representative* by rendezvous hashing over its alive members, NAKs
// funnel to the local representative first, and only representatives
// escalate — one Escalate frame per region per miss — up the region
// hierarchy toward the sender.
//
// Election is pure arithmetic over (member, generation): every member
// of a region computes the same representative from the same view with no
// coordination round, and a partition-generation bump deterministically
// reshuffles the choice away from members that just proved unreachable.
//
// Header-only and dependency-free (common/types.h) so rrmp::Config can embed
// HierarchyParams without pulling the protocol layer into the config header.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rrmp::repair {

struct HierarchyParams {
  /// Master switch. Off (the default): the flat paper protocol, bit-identical
  /// to the pre-hierarchy behaviour.
  bool enabled = false;

  friend bool operator==(const HierarchyParams&,
                         const HierarchyParams&) = default;
};

/// Upper bound on escalation levels a single NAK may climb. Escalate frames
/// at or past this hop count are dropped — a malformed topology (or a stale
/// frame crossing a reconfiguration) must not forward forever.
inline constexpr std::uint32_t kMaxEscalateHops = 16;

/// Retry backoff for hierarchy-mode recovery: the retry timeout doubles per
/// attempt up to `timeout << kMaxBackoffShift`. Bounds the retry event rate
/// at scale.
inline constexpr std::uint32_t kMaxBackoffShift = 3;

/// Rendezvous score of `member` for the representative role. Same splitmix64
/// finalization idiom as buffer::hash_score: full 64-bit avalanche so member
/// ids that differ in one bit land uniformly across the score space.
inline std::uint64_t rep_score(MemberId member, std::uint64_t generation) {
  std::uint64_t x = (static_cast<std::uint64_t>(member) + 1) *
                    0x9e3779b97f4a7c15ULL;
  x ^= 0x6a09e667f3bcc909ULL + (generation << 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Highest-score member wins; score ties (vanishingly rare but possible)
/// break toward the smaller id so every caller agrees. kInvalidMember when
/// the candidate set is empty.
inline MemberId elect_representative(const std::vector<MemberId>& members,
                                     std::uint64_t generation) {
  MemberId best = kInvalidMember;
  std::uint64_t best_score = 0;
  for (MemberId m : members) {
    std::uint64_t s = rep_score(m, generation);
    if (best == kInvalidMember || s > best_score ||
        (s == best_score && m < best)) {
      best = m;
      best_score = s;
    }
  }
  return best;
}

}  // namespace rrmp::repair

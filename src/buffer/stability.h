// Stability-detection baseline (paper §1, Guo & Rhee [8]): members
// periodically exchange message-history information; a message is discarded
// only once every member of the region is known to have received it.
//
// The policy itself is passive — the endpoint runs the history-exchange
// protocol (periodic proto::History multicasts) and a StabilityTracker folds
// the received histories into a per-source stable frontier, then calls
// mark_stable_below(). Safe (never discards a needed message within the
// region) but pays continuous control traffic, which the benchmark harness
// measures against the two-phase scheme's zero overhead.
#pragma once

#include <map>
#include <unordered_map>

#include "buffer/policy.h"
#include "buffer/store.h"

namespace rrmp::buffer {

struct StabilityParams {
  friend bool operator==(const StabilityParams&, const StabilityParams&) = default;
};

class StabilityPolicy final : public RetentionPolicy {
 public:
  StabilityPolicy() = default;
  explicit StabilityPolicy(StabilityParams) {}

  /// Discard every buffered message from `source` with seq < `stable_below`.
  void mark_stable_below(MemberId source, std::uint64_t stable_below);

  void on_stored(const MessageId&) override {}  // retention by stability only
};

/// Folds proto::History reports into a per-source stability frontier:
/// seq s of source is *stable* when every tracked member reported
/// next_expected > s (or covered s in its bitmap).
class StabilityTracker {
 public:
  /// Record member `m`'s report for one source.
  void update(MemberId m, const proto::SourceHistory& h);

  /// Forget a member (left/crashed) so it no longer holds back the frontier.
  void forget_member(MemberId m);

  /// Smallest seq NOT known stable for `source`, given that `expected`
  /// members must have reported (members that never reported gate stability
  /// at 0). `expected` is the current region view.
  std::uint64_t stable_below(MemberId source,
                             const std::vector<MemberId>& expected) const;

 private:
  // source -> (member -> highest prefix received, i.e. next_expected
  // extended through the contiguous part of the bitmap)
  std::map<MemberId, std::unordered_map<MemberId, std::uint64_t>> frontier_;
};

}  // namespace rrmp::buffer

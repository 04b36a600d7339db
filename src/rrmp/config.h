// Protocol configuration (paper §2.2, §3, §4 defaults).
#pragma once

#include <cstdint>

#include "buffer/budget.h"
#include "buffer/coordination.h"
#include "common/time.h"
#include "repair/hierarchy.h"
#include "rrmp/flow_control.h"

namespace rrmp {

/// Period of the stability policy's History multicast.
inline constexpr Duration kHistoryInterval = Duration::millis(20);

/// kMulticastQuery: a bufferer replies after U(0, kQueryBackoffUnit * C),
/// with C the buffer policy's long-term bufferer count
/// (buffer::TwoPhaseParams::C; its default under any other policy). The
/// paper's point is that C underestimates the bufferer count when a message
/// went idle prematurely, so the window is too short to suppress
/// duplicates.
inline constexpr Duration kQueryBackoffUnit = Duration::millis(2);

/// After a search completes, members remember (id -> holder) for this long,
/// so straggler search requests are redirected to the holder instead of
/// restarting a search that can never terminate.
inline constexpr Duration kSearchCacheTtl = Duration::millis(500);

/// Variable Session heartbeat (LBRM): while a sender is idle, each Session
/// doubles the spacing to the next, up to this many
/// Config::session_interval. Sessions are also how a member that lost every
/// copy of a message learns it exists, so a longer cap costs delivery at
/// high loss. In 200 seeded runs of 80 members at 70% loss with C = 8, the
/// runs leaving a message undelivered were 1 with no backoff, 3 at 4×, 7 at
/// 8× and 92 at 16× (property_test's DeliveryBudget allows 5).
inline constexpr std::int64_t kMaxSessionBackoff = 4;

struct Config {
  /// Expected number of remote requests sent by a region per recovery round
  /// while the entire region misses a message (§2.2). Each member missing a
  /// message sends a remote request with probability lambda/|region|.
  double lambda = 1.0;

  /// Interval between the sender's session messages (§2.1); receivers use
  /// them to detect loss of the last messages in a burst.
  ///
  /// Keep this BELOW the buffer policy's idle threshold T: the loss of a
  /// burst's tail message generates no sequence gap, so until a session
  /// message exposes it nobody sends requests — and requests are exactly
  /// the feedback that keeps short-term copies alive (§3.1). With
  /// session_interval > T, every holder of a tail message reaches its idle
  /// decision before the first request can possibly arrive.
  ///
  /// That argument concerns the Sessions that follow new data, and those
  /// keep this spacing: the first Session after a transmitted frame goes
  /// out within one interval. Once the sender is idle (nothing new since
  /// the last Session, nothing queued for credit) the spacing doubles per
  /// Session up to kMaxSessionBackoff intervals. A sender whose frames wait
  /// for credit keeps this base cadence.
  Duration session_interval = Duration::millis(20);

  /// Upper bound on local/remote/search retry attempts per message; 0 means
  /// unbounded (the sim's event horizon bounds it in practice).
  std::uint32_t max_attempts = 0;

  /// Randomized back-off before relaying a remote repair into the region
  /// (§2.2 / [14]): wait U(0, regional_backoff) and suppress the multicast
  /// if another member relays the same message first. zero() relays
  /// immediately (no suppression).
  Duration regional_backoff = Duration::millis(5);

  /// Per-member buffer budget in wire-encoded Data-frame bytes (0 =
  /// unlimited). The endpoint builds its BufferStore with this budget; when
  /// an admission would exceed it, the store evicts its most expendable
  /// entries (see buffer::BufferStore::pick_victims). The paper treats
  /// buffer memory as the scarce resource — this is that resource made an
  /// explicit, tunable quantity.
  buffer::BufferBudget buffer_budget;

  /// Cooperative region-wide budget coordination (see
  /// buffer::CoordinationParams): periodic BufferDigest gossip within the
  /// region, replica-aware eviction, and shed handoffs of sole-copy entries
  /// under pressure. Disabled by default — the uncoordinated protocol is
  /// bit-identical to the budgeted PR 4 behaviour.
  buffer::CoordinationParams buffer_coordination;

  /// Windowed send admission with credit-based feedback (see
  /// FlowControlParams): a per-sender window over outstanding Data frames,
  /// receive cursors in periodic CreditAck feedback, and region-aware
  /// back-pressure fed by the BufferDigest gossip. The window is AIMD
  /// (grow one frame per clean credit round, halve on stall) between a
  /// floor and window_size; `flow.adaptive` lowers the floor from
  /// window_size (a static window) to kMinAdaptiveWindow. `flow.piggyback`
  /// rides the cursors on outgoing Data/Session frames and demotes the
  /// periodic CreditAcks to a quiet-receiver fallback. Disabled by default —
  /// the unpaced protocol is bit-identical to the pre-flow-control
  /// behaviour, and adaptive/piggyback off is bit-identical to the static
  /// credit design.
  FlowControlParams flow;

  /// Hierarchical repair trees (see repair::HierarchyParams): per-region
  /// representatives elected by rendezvous hashing aggregate NAKs — members
  /// ask their region's representative first, and only representatives
  /// escalate misses up the region hierarchy (one Escalate frame per region
  /// per miss) instead of every member sampling random parent-region peers.
  /// Disabled by default — the flat protocol is bit-identical to the
  /// pre-hierarchy behaviour.
  repair::HierarchyParams hierarchy;

  /// How a member locates a bufferer for a *discarded* message (§3.3).
  /// kRandomSearch is the paper's scheme; kMulticastQuery is the rejected
  /// alternative (multicast the request, bufferers reply after a randomized
  /// back-off proportional to the buffer policy's C, see kQueryBackoffUnit)
  /// kept for the implosion ablation.
  enum class SearchStrategy { kRandomSearch, kMulticastQuery };
  SearchStrategy search_strategy = SearchStrategy::kRandomSearch;
};

}  // namespace rrmp

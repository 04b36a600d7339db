// Protocol configuration (paper §2.2, §3, §4 defaults).
#pragma once

#include <cstdint>

#include "buffer/budget.h"
#include "buffer/coordination.h"
#include "common/time.h"
#include "repair/hierarchy.h"
#include "rrmp/flow_control.h"

namespace rrmp {

/// How a member that needs a retransmission locates someone who buffers the
/// message.
enum class BuffererLookup {
  /// The paper's randomized scheme: random neighbors + random search (§3.3).
  kRandomized,
  /// The deterministic scheme of [11] (§3.4): requests go straight to the
  /// hash-selected bufferer set; requires the hash-based buffer policy.
  kHashDirect,
};

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
  Duration session_interval = Duration::millis(20);

  /// Multiplier applied to the RTT estimate when arming request-retry
  /// timers. The paper uses the plain RTT (factor 1).
  double timeout_factor = 1.0;

  /// Measure per-peer RTTs from request->repair samples and derive retry
  /// timeouts with Jacobson/Karels smoothing instead of trusting the
  /// host's static estimate. Off by default so the figure reproductions
  /// use the paper's exact-RTT timers.
  bool measure_rtt = false;

  /// Upper bound on local/remote/search retry attempts per message; 0 means
  /// unbounded (the sim's event horizon bounds it in practice).
  std::uint32_t max_attempts = 0;

  /// Randomized back-off before relaying a remote repair into the region
  /// (§2.2 / [14]): wait U(0, regional_backoff) and suppress the multicast
  /// if another member relays the same message first. zero() relays
  /// immediately (no suppression).
  Duration regional_backoff = Duration::millis(5);

  /// Bufferer location scheme (see BuffererLookup).
  BuffererLookup lookup = BuffererLookup::kRandomized;

  /// Per-member buffer budget (bytes/entries in wire-encoded Data-frame
  /// units; zero fields = unlimited). The endpoint builds its BufferStore
  /// with this budget; when an admission would exceed it, the retention
  /// policy picks eviction victims (see buffer::RetentionPolicy). The paper
  /// treats buffer memory as the scarce resource — this is that resource
  /// made an explicit, tunable quantity.
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
  /// CreditAck multicast to a quiet-receiver fallback. Disabled by default —
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
  /// back-off proportional to C) kept for the implosion ablation.
  enum class SearchStrategy { kRandomSearch, kMulticastQuery };
  SearchStrategy search_strategy = SearchStrategy::kRandomSearch;

  /// kMulticastQuery: a bufferer replies after U(0, query_backoff_unit * C
  /// estimate). The paper's point is that C underestimates the bufferer
  /// count when a message went idle prematurely, so the window is too short
  /// to suppress duplicates.
  Duration query_backoff_unit = Duration::millis(2);
  double query_backoff_c = 6.0;

  /// After a search completes, members remember (id -> holder) for this
  /// long, so straggler search requests are redirected to the holder
  /// instead of restarting a search that can never terminate.
  Duration search_cache_ttl = Duration::millis(500);

  /// Number of hash-selected bufferers per message; must match the
  /// hash-based policy's k when lookup == kHashDirect.
  std::uint32_t hash_k = 6;

  /// Enable the stability baseline's periodic history multicast; set
  /// automatically when the buffer policy requires it.
  bool history_exchange = false;
  Duration history_interval = Duration::millis(20);

  /// The paper's recovery engine: react to detected sequence gaps with
  /// immediate randomized requests (§2.2). Disable only to isolate the
  /// anti-entropy engine in ablations.
  bool gap_driven_recovery = true;

  /// Bimodal Multicast's recovery engine ([3], which RRMP builds on): each
  /// member periodically sends a digest of its received sequences to one
  /// random region member; the receiver pulls what it misses directly from
  /// the digest's sender. Coexists with gap-driven recovery if both are on.
  bool anti_entropy = false;
  Duration anti_entropy_interval = Duration::millis(50);
  /// Cap on pull requests triggered by one digest (bounds burst size).
  std::uint32_t anti_entropy_max_pulls = 64;
};

}  // namespace rrmp

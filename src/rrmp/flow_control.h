// Windowed send admission with credit-based feedback (flow control).
//
// The paper's buffer optimizations assume senders are paced; without
// admission control a flash crowd of senders overruns every per-member and
// region budget simultaneously and the coordination loop can only shuffle
// losses around. This module adds the missing pacing, adapting Derecho's SST
// multicast window: a sender may have at most `window_size` Data frames
// outstanding (sent but not yet acknowledged by every region peer).
// Each receiver returns its receive cursor for a region sender's stream
// (the highest contiguously received sequence, the analogue of Derecho's
// num_received counters) to that sender alone, in a periodic CreditAck
// unicast, as a DFI writer alone gets its acks back; the minimum cursor
// across peers is the window floor, and each cursor advance releases
// credits. Like every SST row, every reachable region peer holds a cursor
// from the sender's first frame on (seeded at the floor), so a peer that
// has heard nothing bounds the window just as one that reported 0 does.
//
// Region-aware back-pressure: peers advertise buffer occupancy (bytes in
// use vs budget) in both CreditAck frames and the BufferDigest gossip. When
// any peer is at or past the pressure watermark, the sender halves its
// effective window — shedding credit from the senders *before* eviction
// pressure hits the receiver's buffer.
//
// FlowController is pure state (no host, no timers, no RNG): the Endpoint
// feeds it acks/digests and asks may_send() before transmitting; deferred
// frames wait in the tail of the endpoint's send window. Everything is inert
// unless FlowControlParams::enabled is set — the disabled protocol is
// bit-identical to the unpaced one.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace rrmp {

/// The adaptive window's floor and starting point (clamped to window_size).
inline constexpr std::uint32_t kMinAdaptiveWindow = 2;

/// Peer occupancy (bytes in use / budget) at or past which the region counts
/// as pressured.
inline constexpr double kPressureWatermark = 0.75;

struct FlowControlParams {
  /// Master switch; everything below is inert when false.
  bool enabled = false;

  /// Maximum outstanding (sent, not yet peer-acknowledged) Data frames per
  /// sender: the AIMD window's ceiling, and also its floor unless
  /// `adaptive`. Sanitized to >= 1.
  std::uint32_t window_size = 32;

  /// Period of the receiver-side CreditAcks (receive cursors + buffer
  /// occupancy, one to each region sender). Keep at or below the RTT for a
  /// responsive window.
  Duration ack_interval = Duration::millis(10);

  /// Region-aware back-pressure: halve the effective window while any peer
  /// advertises occupancy at or past kPressureWatermark of its budget.
  bool backpressure = true;

  /// AIMD window sizing. When on, the live window starts at
  /// kMinAdaptiveWindow and grows by one frame per *clean credit round* (a
  /// probe period — the larger of ack_interval and the measured RTT — in
  /// which the floor advanced with no stall), and halves on an observed
  /// loss/stall, bounded to [kMinAdaptiveWindow, window_size]. Off (the
  /// default): the same AIMD window with its floor raised to its ceiling,
  /// i.e. the static `window_size`.
  bool adaptive = false;

  /// Piggyback this member's receive cursors on its outgoing Data/Session
  /// frames and suppress the periodic CreditAcks while those piggybacked
  /// cursors are fresh — CreditAck becomes a fallback for quiet receivers
  /// (plus a periodic refresh in case frames were lost).
  bool piggyback = false;

  friend bool operator==(const FlowControlParams&,
                         const FlowControlParams&) = default;
};

/// Per-sender window state: outstanding frames against the minimum peer
/// receive cursor, plus the region occupancy view driving back-pressure.
/// The peer table is a vector of rows sorted by member id, so every decision
/// visits peers in ascending id order, deterministic across runs and shard
/// counts, and the per-frame floor scan walks contiguous memory.
class FlowController {
 public:
  FlowController() : FlowController(FlowControlParams{}, 0) {}
  /// `self_budget_bytes` is the fallback budget used to judge a peer's
  /// advertised occupancy when the peer has not reported its own budget
  /// (BufferDigest carries bytes only); 0 = unlimited, never pressured.
  FlowController(FlowControlParams params, std::size_t self_budget_bytes);

  // --- sender side --------------------------------------------------------

  /// May the next frame be transmitted now? Always true when disabled.
  bool may_send() const {
    return !params_.enabled || outstanding() < effective_window();
  }

  /// Record the next frame (sequence send_seq() + 1) as transmitted.
  void on_frame_sent() { ++send_seq_; }

  // --- feedback -----------------------------------------------------------

  /// A peer acknowledged contiguous receipt of our stream through `cursor`
  /// (0 = nothing yet). Monotone: stale acks never retract credit.
  void on_cursor(MemberId peer, std::uint64_t cursor);

  /// Peer occupancy from a CreditAck (carries the peer's own budget).
  void on_peer_budget(MemberId peer, std::uint64_t bytes_in_use,
                      std::uint64_t budget_bytes);

  /// Peer occupancy from the BufferDigest gossip: buffer bytes (judged
  /// against the peer's last reported budget, else self_budget_bytes) plus
  /// the peer's own advertised window occupancy — the crowd signal that
  /// splits the pressured window across concurrent senders.
  void on_peer_occupancy(MemberId peer, std::uint64_t bytes_in_use,
                         std::uint64_t window_outstanding);

  /// Reconcile the peer table with `reachable`, the region peers this
  /// member can reach (sorted, self excluded). Peers outside it are dropped:
  /// departed or severed members must not wedge the window floor or pin
  /// phantom pressure. Once anything was sent, every reachable peer without
  /// a cursor (never reported, a joiner, healed from a partition, or known
  /// only from its BufferDigest) is bound at the floor over the peers that
  /// remain: a peer that hears nothing still bounds the window, and a
  /// joiner's first ack (necessarily 0 — it has received nothing
  /// contiguously) cannot drag the floor back. on_cursor's monotonicity
  /// holds the seed until the peer genuinely catches up; a joiner backfills
  /// the older frames through the recovery path, not the flow window.
  void sync_peers(const std::vector<MemberId>& reachable);

  /// Liveness escape hatch for a window wedged on *seeded* cursors: a peer
  /// whose binding sits at the floor but who never genuinely reported that
  /// high is still backfilling history *below* the floor (a rejoined member
  /// whose pre-crash state was evicted region-wide may never finish), so
  /// re-multicasting the frame at the floor cannot unwedge it. When every
  /// floor-holding peer is in that state, advance their bindings one frame
  /// and return true; reliability for the skipped history stays with the
  /// recovery layer. If any floor holder honestly reported the floor this
  /// returns false and changes nothing — that stall belongs to the
  /// re-multicast path. Never fires in churn-free runs: there every seed is
  /// the first frame's floor of 0, which no report falls below.
  bool release_stalled_peers();

  // --- AIMD window sizing -------------------------------------------------

  /// A clean probe round elapsed (floor advanced, no stall observed):
  /// additive increase by one frame, capped at window_size.
  void on_clean_round();

  /// Loss/stall observed on our stream (a stall re-multicast fired):
  /// multiplicative decrease — halve, floored at the minimum window.
  void on_loss();

  // --- introspection ------------------------------------------------------

  std::uint64_t send_seq() const { return send_seq_; }
  /// Minimum receive cursor over reporting peers (0 until anyone reports).
  std::uint64_t window_floor() const;
  /// Frames sent and not yet acknowledged by every peer. Seeds start at the
  /// floor and cursors only rise, so once sync_peers has bound every
  /// reporting peer this grows only by admitted sends; a peer that reports
  /// before it is bound (a view change the endpoint was not told of) can
  /// still drag the floor back until the next sync.
  std::uint64_t outstanding() const { return send_seq_ - window_floor(); }
  /// Credits available right now: effective_window() - outstanding(),
  /// clamped at 0. Never exceeds current_window() by construction.
  std::uint64_t credits() const;
  /// The AIMD-governed base window (the static window_size when not
  /// adaptive: floor and ceiling coincide).
  std::uint32_t current_window() const { return cwnd_; }
  /// current_window() while the region is unpressured. Under pressure (any
  /// peer at or past the occupancy watermark): halved, then split evenly
  /// across the senders currently advertising outstanding frames in the
  /// digest gossip (min 1) — a lone sender backs off a little, a flash crowd
  /// backs off to a trickle that the receivers' budgets can actually absorb.
  std::uint32_t effective_window() const;
  bool pressured() const;

  const FlowControlParams& params() const { return params_; }

 private:
  /// Everything known about one region peer.
  struct Peer {
    /// Highest acknowledged contiguous sequence of our stream; absent until
    /// the peer reports or sync_peers seeds it.
    std::optional<std::uint64_t> cursor;
    /// Highest cursor the peer *itself* ever reported this incarnation
    /// (monotone). Falls behind `cursor` only when sync_peers seeded the
    /// binding above the peer's truth — the signal release_stalled_peers
    /// keys on.
    std::uint64_t reported = 0;
    std::uint64_t bytes_in_use = 0;
    std::uint64_t budget_bytes = 0;  // 0 = not reported / unlimited
    /// The peer's advertised sender-window occupancy (BufferDigest gossip):
    /// nonzero marks it a concurrent sender for the crowd split.
    std::uint64_t window_outstanding = 0;
  };

  FlowControlParams params_;
  std::size_t self_budget_bytes_ = 0;
  /// AIMD bounds: [min_cwnd_, window_size]; min_cwnd_ == window_size for a
  /// static window, so the AIMD steps leave it untouched.
  std::uint32_t min_cwnd_ = 1;
  std::uint32_t cwnd_ = 1;
  std::uint64_t send_seq_ = 0;
  std::vector<std::pair<MemberId, Peer>> peers_;  // sorted by member id

  /// `id`'s row, inserted empty at its sorted position when absent.
  Peer& row(MemberId id);
};

/// Clamp nonsensical knob values (window 0, non-positive ack period) to safe
/// ones; mirrors Config sanitizing.
FlowControlParams sanitized(FlowControlParams p);

}  // namespace rrmp

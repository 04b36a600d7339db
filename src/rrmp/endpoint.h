// RRMP protocol endpoint: one per group member.
//
// Implements the paper end to end:
//  - loss detection from sequence gaps and session messages (§2.1),
//  - concurrent local + remote recovery phases (§2.2):
//      local: request from a uniformly random region neighbor, retry on an
//             RTT timer;
//      remote: request from a random parent-region member with probability
//              lambda/|region| per attempt (timer armed regardless),
//  - waiter forwarding: a member asked for a message it never received
//    records the requester and relays on receipt (§2.2),
//  - regional multicast of remote repairs, with randomized back-off to
//    suppress duplicates (§2.2),
//  - buffer management by a BufferStore (owned by the endpoint, budgeted
//    via Config::buffer_budget) driven by a pluggable RetentionPolicy;
//    retransmission requests feed the two-phase policy's idle detection
//    (§3.1),
//  - random search for a bufferer of a discarded message (§3.3), terminated
//    by an "I have the message" regional multicast,
//  - long-term buffer handoff on voluntary leave (§3.2),
//  - optional cooperative region-wide budgets: periodic BufferDigest gossip
//    advertising the held id set + bytes in use, replica-aware eviction, and
//    shed handoffs pushing sole-copy entries to the least-loaded neighbor
//    under budget pressure (Config::buffer_coordination),
//  - optional deterministic hash-direct lookup instead of randomized
//    search, reproducing the authors' earlier scheme [11] (§3.4),
//  - optional history exchange driving the stability-detection baseline,
//  - optional hierarchical repair trees (Config::hierarchy): each region's
//    rendezvous-elected representative aggregates the region's NAKs —
//    members direct their first local request at it, non-representatives
//    skip the remote phase entirely, and only representatives escalate a
//    miss (one Escalate frame) to the parent region's representative; the
//    root region's representative falls back to the original sender.
//    Hierarchy-mode retries back off exponentially so retry traffic stays
//    bounded at million-member scale.
//
// The endpoint is transport-agnostic: it talks only to an IHost, so the same
// code runs on the discrete-event simulator and on loopback UDP sockets.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "buffer/hash_based.h"
#include "buffer/policy.h"
#include "common/flat_map.h"
#include "buffer/stability.h"
#include "buffer/store.h"
#include "rrmp/config.h"
#include "rrmp/flow_control.h"
#include "rrmp/gossip_fd.h"
#include "rrmp/host.h"
#include "rrmp/metrics.h"
#include "rrmp/rtt_estimator.h"
#include "rrmp/sequence_tracker.h"

namespace rrmp {

class Endpoint {
 public:
  /// `metrics` may be nullptr. The policy must be unbound; the endpoint
  /// builds a BufferStore around it (budgeted by config.buffer_budget) and
  /// binds the pair to its own PolicyEnv.
  Endpoint(IHost& host, Config config,
           std::unique_ptr<buffer::RetentionPolicy> policy,
           MetricsSink* metrics = nullptr);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // --- application interface -----------------------------------------

  /// Multicast a new message to the whole group (this member is the
  /// sender). Returns the assigned id. With flow control enabled
  /// (Config::flow), a frame that exceeds the send window is queued and
  /// transmitted — in id order — as peer credit arrives; the id is
  /// assigned immediately either way. A halted member sends nothing and
  /// returns sequence 0.
  MessageId multicast(std::vector<std::uint8_t> payload);

  /// Called once for each distinct message received (any order).
  void set_delivery_handler(std::function<void(const proto::Data&)> fn) {
    delivery_handler_ = std::move(fn);
  }

  /// Gracefully leave the group: hand the long-term buffer to randomly
  /// selected region members (§3.2) and stop all activity.
  void leave();

  /// Stop without handoff (crash in tests; also used on shutdown).
  void halt();

  // --- transport interface --------------------------------------------

  /// Feed an incoming message (the host's receive path calls this).
  void handle_message(const proto::Message& msg, MemberId from);

  /// The region view changed (join/leave/crash). Flow-control credit state
  /// is reconciled *now* rather than at the next credit tick: departed
  /// peers' cursors stop wedging the window floor immediately, and a
  /// joiner's cursor is seeded at the current floor so its first (empty)
  /// acks cannot drag the floor back to 0. No-op when flow is off.
  void on_view_change();

  /// Connectivity changed (fault injection: a partition formed or healed).
  /// `unreachable` lists the region peers that are alive-but-severed from
  /// this member; `generation` is the cluster's connectivity generation,
  /// stamped on outgoing CreditAcks/BufferDigests and checked on receipt so
  /// credit state that crossed a partition boundary is rejected wholesale.
  /// Credit bindings to newly unreachable peers are released immediately —
  /// a severed peer must not wedge the window floor for the partition's
  /// lifetime — and at heal the other side re-seeds at the current floor,
  /// exactly like genuine joiners. Never called in fault-free runs.
  void on_partition_change(std::vector<MemberId> unreachable,
                           std::uint64_t generation);

  // --- introspection ----------------------------------------------------

  MemberId self() const { return host_.self(); }
  bool active() const { return active_; }
  const buffer::BufferStore& buffer() const { return *store_; }
  buffer::BufferStore& buffer() { return *store_; }

  bool has_received(const MessageId& id) const;
  std::uint64_t received_count() const;
  std::size_t active_recoveries() const { return recoveries_.size(); }
  std::size_t active_searches() const { return searches_.size(); }
  std::size_t waiter_count() const { return waiters_.size(); }
  std::uint64_t highest_sent() const { return flow_.send_seq(); }

  /// Flow-control window state (meaningful when config.flow.enabled).
  const FlowController& flow() const { return flow_; }
  /// Connectivity generation last reported by on_partition_change (0 in
  /// fault-free runs).
  std::uint64_t view_generation() const { return view_gen_; }
  /// Frames admitted by multicast() but not yet transmitted (window full).
  std::size_t queued_sends() const {
    return window_.empty() ? 0 : window_.back().id.seq - flow_.send_seq();
  }

  /// Missing sequence numbers currently known for `source`.
  std::vector<std::uint64_t> missing_from(MemberId source) const;

  /// Start the gossip failure detector (optional; suspicion is reported to
  /// on_suspect so the host can filter its views).
  void enable_gossip_fd(GossipConfig config,
                        std::function<void(MemberId, bool)> on_suspect);

  /// Measured-RTT state (populated when config.measure_rtt is set).
  const RttEstimator& rtt_estimator() const { return rtt_; }

 private:
  // PolicyEnv implementation handed to the buffer policy.
  class Env final : public buffer::PolicyEnv {
   public:
    explicit Env(Endpoint& ep) : ep_(ep) {}
    TimePoint now() const override;
    std::uint64_t schedule(Duration d, std::function<void()> fn) override;
    void cancel(std::uint64_t timer) override;
    RandomEngine& rng() override;
    std::size_t region_size() const override;
    const std::vector<MemberId>& region_members() const override;
    MemberId self() const override;
    buffer::BudgetState budget() const override;

   private:
    Endpoint& ep_;
  };

  struct RecoveryTask {
    TimePoint started;
    TimerHandle local_timer = kNoTimer;
    TimerHandle remote_timer = kNoTimer;
    std::uint32_t local_attempts = 0;
    std::uint32_t remote_attempts = 0;
    /// Hierarchy mode: escalation levels already climbed to reach us. 0 for
    /// a gap we detected ourselves; an escalation-triggered recovery carries
    /// the incoming hop + 1, so a cyclic (misconfigured) topology trips the
    /// max_hops guard instead of forwarding forever.
    std::uint32_t escalate_hop = 0;
  };

  struct SearchTask {
    TimePoint started;
    /// Requesters carried in outgoing SearchRequests (front is forwarded).
    std::vector<MemberId> carry;
    /// Requesters that contacted *this* member directly (RemoteRequest);
    /// when another member's chain finds the holder, these are forwarded to
    /// the holder so they are never left unserved.
    std::vector<MemberId> own;
    TimerHandle timer = kNoTimer;
    std::uint32_t attempts = 0;
  };

  struct PendingRelay {
    TimerHandle timer = kNoTimer;
    proto::Data data;
  };

  /// kMulticastQuery strategy: a bufferer's delayed "I have it" reply.
  struct PendingReply {
    TimerHandle timer = kNoTimer;
    MemberId requester = kInvalidMember;
  };

  // Message handlers.
  void handle_data(const proto::Data& d, MemberId from);
  void handle_session(const proto::Session& s, MemberId from);
  void handle_local_request(const proto::LocalRequest& r, MemberId from);
  void handle_remote_request(const proto::RemoteRequest& r, MemberId from);
  void handle_repair(const proto::Repair& r, MemberId from);
  void handle_regional_repair(const proto::RegionalRepair& r, MemberId from);
  void handle_search_request(const proto::SearchRequest& r, MemberId from);
  void handle_search_found(const proto::SearchFound& r, MemberId from);
  void handle_handoff(const proto::Handoff& h, MemberId from);
  void handle_gossip(const proto::Gossip& g, MemberId from);
  void handle_history(const proto::History& h, MemberId from);
  void handle_buffer_digest(const proto::BufferDigest& d, MemberId from);
  void handle_shed(const proto::Shed& s, MemberId from);
  void handle_credit_ack(const proto::CreditAck& a, MemberId from);
  void handle_escalate(const proto::Escalate& e, MemberId from);

  // Reception path shared by data/repair/regional-repair/handoff.
  // Returns true if the message was new.
  bool accept(const proto::Data& d, bool from_remote_region);

  // Recovery.
  void start_recovery(const MessageId& id);
  void finish_recovery(const MessageId& id);
  void local_attempt(const MessageId& id);
  void remote_attempt(const MessageId& id);
  MemberId pick_request_target(const MessageId& id);

  // Hierarchical repair (cfg_.hierarchy). Representatives are recomputed
  // lazily whenever the host's view epoch or the connectivity generation
  // moved; election excludes partition-severed peers so an unreachable
  // representative never blackholes the region's NAK funnel.
  void refresh_representatives();
  MemberId region_representative();
  MemberId parent_representative();
  bool is_representative() { return region_representative() == self(); }
  /// Hierarchy-mode retry pacing: `base` doubled per prior attempt, capped
  /// at base << hierarchy.max_backoff_shift. Identity outside hierarchy mode.
  Duration retry_backoff(Duration base, std::uint32_t attempts) const;

  // Search (§3.3).
  void start_search(const MessageId& id, MemberId requester);
  void search_attempt(const MessageId& id);
  void end_search(const MessageId& id, MemberId holder);
  void schedule_query_reply(const MessageId& id, MemberId requester);
  void fire_query_reply(const MessageId& id);
  /// Known holder from a recently completed search, if still fresh.
  MemberId cached_holder(const MessageId& id);
  void remember_holder(const MessageId& id, MemberId holder);
  /// Multicast "I have the message" unless we already announced it within
  /// the last intra-region RTT (straggler probes must not cause a storm of
  /// re-announcements).
  void announce_found(const MessageId& id);

  // Regional relay of remote repairs.
  void schedule_regional_relay(const proto::Data& d);
  void fire_regional_relay(const MessageId& id);

  // Stability baseline support.
  void history_tick();
  void recompute_stability();

  // Anti-entropy engine (Bimodal Multicast [3]).
  void anti_entropy_tick();
  void pull_from_digest(const proto::History& digest, MemberId from);
  proto::History build_history() const;

  // Session messages (sender only).
  void session_tick();

  // Cooperative budget coordination: periodic regional digest multicast.
  void digest_tick();

  // Flow control (Config::flow): periodic CreditAck multicast + queue drain.
  void credit_tick();
  /// True when the window admits the next frame right now (always true
  /// when alone in the region: there is no peer to grant credit).
  bool flow_admits() const;
  /// Deliver locally and transmit the oldest queued frame of window_.
  void transmit_next();
  /// Transmit queued frames while credit allows.
  void drain_window();
  /// This member's per-source receive cursors — the payload of a CreditAck
  /// and of the piggyback block on outgoing Data/Session frames.
  std::vector<proto::ReceiveCursor> cursor_snapshot() const;
  /// Apply a piggybacked cursor block from a region peer's Data/Session
  /// frame (same credit semantics as a CreditAck's cursor list).
  void handle_piggyback(const std::vector<proto::ReceiveCursor>& cursors,
                        MemberId from);
  /// Diff the current reachable peer set against flow_view_ and seed
  /// cursors for members that genuinely joined — or just became reachable
  /// again at a partition heal (churn-safe credit state).
  void sync_flow_peers();
  /// The live view minus currently-unreachable peers (flow control's peer
  /// universe). Returns the view itself when no partition is active.
  const std::vector<MemberId>& flow_peers() const;
  /// True when an active partition severs us from `m`.
  bool flow_unreachable(MemberId m) const;

  // Helpers.
  void serve_waiters(const proto::Data& d);
  void satisfy_searches(const proto::Data& d);
  TimerHandle schedule(Duration d, std::function<void()> fn);
  void cancel(TimerHandle& t);
  Duration request_timeout(MemberId peer) const;
  MetricsSink& metrics() { return *metrics_; }
  SequenceTracker& tracker(MemberId source) { return trackers_[source]; }

  IHost& host_;
  Config cfg_;
  Env env_;
  std::unique_ptr<buffer::BufferStore> store_;
  NullSink null_sink_;
  MetricsSink* metrics_;
  std::function<void(const proto::Data&)> delivery_handler_;

  bool active_ = true;
  // Liveness token captured by every timer guard: halt() cancels the timers
  // it tracks, but buffer-policy timers it does not — a timer that outlives
  // this endpoint (e.g. the member was replaced after a rejoin) must find a
  // dead token instead of dereferencing a freed `this`.
  std::shared_ptr<bool> alive_token_ = std::make_shared<bool>(true);
  TimerHandle session_timer_ = kNoTimer;
  TimerHandle history_timer_ = kNoTimer;
  TimerHandle anti_entropy_timer_ = kNoTimer;
  TimerHandle digest_timer_ = kNoTimer;
  TimerHandle credit_timer_ = kNoTimer;

  // Flow control state (inert when cfg_.flow.enabled is false). flow_
  // also counts the frames sent (send_seq) with flow control off.
  FlowController flow_;
  /// This member's send window, in id order. The prefix through
  /// flow_.send_seq() is on the wire and not yet known to be below the
  /// window floor (pruned each credit tick); the tail was assigned an id
  /// by multicast() and waits for credit. The sender is the
  /// retransmission source of last resort for the prefix: the BufferStore
  /// may evict those copies under budget pressure (they compete with every
  /// other sender's frames), but the window cannot move past a frame some
  /// receiver never got. With flow control off nothing waits and no copy
  /// is kept, so it stays empty. Session messages announce only
  /// flow_.send_seq() — an unsent frame must not be reported as a loss.
  std::deque<proto::Data> window_;
  /// Stall detection for sender-driven retransmission: the window floor as
  /// of the last credit tick, and how many ticks it has sat still with
  /// frames outstanding. Receiver-side recovery can give up (max_attempts)
  /// while our pinned copy of the blocking frame still exists — without a
  /// sender retransmit that one frame wedges the window forever.
  std::uint64_t stall_floor_ = 0;
  std::uint32_t stall_ticks_ = 0;
  static constexpr std::uint32_t kStallRetransmitTicks = 3;
  /// Region membership as of the last flow reconciliation; diffed against
  /// the live view to tell genuine joiners (seed their cursor at the floor)
  /// from peers that merely have not acked yet (who must keep their right
  /// to drag the floor back when their first real ack arrives).
  std::vector<MemberId> flow_view_;
  /// Fault injection: region peers severed from us by an active partition
  /// (sorted; empty in fault-free runs) and the cluster's connectivity
  /// generation, stamped on outgoing credit state and matched on receipt.
  std::vector<MemberId> flow_unreachable_;
  std::uint64_t view_gen_ = 0;
  mutable std::vector<MemberId> flow_peers_scratch_;

  // AIMD probe-round state. A round is the larger of ack_interval and the
  // measured RTT of the slowest peer; a round in which the floor advanced
  // with no stall grows the window by one (a no-op for a static window).
  TimePoint aimd_round_start_{};
  std::uint64_t aimd_round_floor_ = 0;
  bool aimd_loss_in_round_ = false;

  // Cursor piggybacking (cfg_.flow.piggyback): the cursor set most recently
  // advertised on any channel (piggybacked frame or CreditAck). The credit
  // tick suppresses its CreditAck while the live snapshot still equals this
  // — but refreshes at least every kQuietAckRefreshTicks ticks, because a
  // lost piggybacked frame would otherwise leave peers stale indefinitely.
  std::vector<proto::ReceiveCursor> advertised_cursors_;
  bool advertised_any_ = false;
  std::uint32_t quiet_ticks_ = 0;
  static constexpr std::uint32_t kQuietAckRefreshTicks = 8;

  // Hierarchical-repair representative cache (cfg_.hierarchy.enabled);
  // rep_epoch_ mirrors host_.view_epoch() and rep_generation_ mirrors
  // view_gen_ as of the last election.
  MemberId local_rep_ = kInvalidMember;
  MemberId parent_rep_ = kInvalidMember;
  bool rep_cache_valid_ = false;
  std::uint64_t rep_epoch_ = 0;
  std::uint64_t rep_generation_ = 0;
  std::vector<MemberId> rep_scratch_;

  std::map<MemberId, SequenceTracker> trackers_;
  // Flat open-addressing maps on the per-message hot path: at million-member
  // scale the recovery/waiter churn outgrows unordered_map's node traffic.
  common::FlatMap<MessageId, RecoveryTask> recoveries_;
  // Outstanding local probes per message, for RTT sampling: when we FIRST
  // probed each target. Attributing a repair to the first probe of its
  // sender avoids Karn's retransmission ambiguity (a retry to the same
  // target would otherwise yield a near-zero sample).
  std::unordered_map<MessageId, std::map<MemberId, TimePoint>> probes_;
  RttEstimator rtt_;
  common::FlatMap<MessageId, std::vector<MemberId>> waiters_;
  std::unordered_map<MessageId, SearchTask> searches_;
  std::unordered_map<MessageId, PendingRelay> pending_relays_;
  std::unordered_map<MessageId, PendingReply> pending_replies_;
  // id -> (holder, recorded_at); entries expire after search_cache_ttl.
  std::unordered_map<MessageId, std::pair<MemberId, TimePoint>> found_cache_;
  // id -> when we last multicast SearchFound for it ourselves.
  std::unordered_map<MessageId, TimePoint> last_announce_;
  // Negative cache: searches we abandoned after max_attempts. Without it,
  // probes from other (still-active) searchers would resurrect our task and
  // a futile search would sustain itself forever. Expires with
  // search_cache_ttl; cleared if the message or a holder turns up.
  std::unordered_map<MessageId, TimePoint> search_given_up_;
  bool search_abandoned(const MessageId& id);

  // Stability baseline state.
  buffer::StabilityTracker stability_;
  bool history_enabled_ = false;

  // Scratch for hash-direct bufferer lookups (reused, no per-call allocs).
  buffer::BuffererSelector selector_;
  std::vector<MemberId> bufferer_scratch_;

  std::unique_ptr<GossipFailureDetector> gossip_fd_;
};

}  // namespace rrmp

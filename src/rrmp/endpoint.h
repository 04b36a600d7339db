// RRMP protocol endpoint: one per group member.
//
// Implements the paper end to end:
//  - loss detection from sequence gaps and session messages (§2.1); the
//    Session heartbeat backs off while the sender is idle (LBRM's variable
//    heartbeat, see kMaxSessionBackoff),
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
//  - deterministic hash-direct lookup instead of randomized search when the
//    buffer policy is the hash-based one, reproducing the authors' earlier
//    scheme [11] (§3.4),
//  - the history exchange when the buffer policy is the stability-detection
//    baseline,
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
//
// Its member functions are defined in three files, by engine:
//  - endpoint.cc: lifecycle, the send path and window, dispatch, reception,
//    handoff and shed inheritance;
//  - endpoint_state.cc: the state plane — the Session, credit, digest and
//    History ticks, their handlers, the flow-control peer glue, and the view
//    and partition hooks;
//  - endpoint_recovery.cc: the recovery engine — the request ladder,
//    repairs, local/remote phases, representatives, search, regional relay
//    and anti-entropy pulls.
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
#include "rrmp/host.h"
#include "rrmp/metrics.h"
#include "rrmp/rtt_estimator.h"
#include "rrmp/sequence_tracker.h"

namespace rrmp {

class Endpoint {
 public:
  /// The policy must be unbound; the endpoint builds a BufferStore around
  /// it (budgeted by config.buffer_budget) and binds the pair to its own
  /// PolicyEnv. Every protocol event is recorded into `metrics`, which must
  /// outlive the endpoint.
  Endpoint(IHost& host, Config config,
           std::unique_ptr<buffer::RetentionPolicy> policy,
           RecordingSink& metrics);
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

  /// Stop without handoff (crash in tests; also used on shutdown). Cancels
  /// every timer the endpoint armed, the buffer store's included, so the
  /// endpoint may be destroyed while its host keeps running. Call it from
  /// outside the endpoint's callbacks: a delivery handler that halts its
  /// own endpoint leaves the rest of that delivery running.
  void halt();

  // --- transport interface --------------------------------------------

  /// Feed an incoming message (the host's receive path calls this).
  void handle_message(const proto::Message& msg, MemberId from);

  /// The region view changed (join/leave/crash). Flow-control credit state
  /// is reconciled *now* rather than at the next credit tick: departed
  /// peers' cursors stop wedging the window floor immediately, and once
  /// this member has sent, a joiner's cursor is seeded at the current floor
  /// so its first (empty) acks cannot drag the floor back to 0. No-op when
  /// flow is off.
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

  /// Measured-RTT state (populated when config.measure_rtt is set).
  const RttEstimator& rtt_estimator() const { return rtt_; }

 private:
  // PolicyEnv implementation handed to the buffer policy.
  class Env final : public buffer::PolicyEnv {
   public:
    explicit Env(Endpoint& ep) : ep_(ep) {}
    TimePoint now() const override;
    std::uint64_t schedule(Duration d, sim::Callback fn) override;
    void cancel(std::uint64_t timer) override;
    RandomEngine& rng() override;
    std::size_t region_size() const override;
    const std::vector<MemberId>& region_members() const override;
    MemberId self() const override;

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
    /// repair::kMaxEscalateHops guard instead of forwarding forever.
    std::uint32_t escalate_hop = 0;
  };

  struct SearchTask {
    TimePoint started;
    /// Requesters carried in outgoing SearchRequests (front is forwarded).
    std::vector<MemberId> carry;
    /// Requesters that contacted *this* member directly (RemoteRequest or
    /// Escalate); when another member's chain finds the holder, these are
    /// forwarded to the holder so they are never left unserved.
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

  // --- endpoint.cc: send path, dispatch, reception -----------------------

  void handle_data(const proto::Data& d, MemberId from);
  void handle_session(const proto::Session& s, MemberId from);
  void handle_handoff(const proto::Handoff& h, MemberId from);
  void handle_shed(const proto::Shed& s, MemberId from);

  // Reception path shared by data/repair/regional-repair/handoff; a
  // message already received is ignored.
  void accept(const proto::Data& d);
  /// Take over a neighbor's copy (leave-time handoff, §3.2, or budget shed):
  /// deliver it if never received, then keep it long-term.
  void inherit(const proto::Data& d);

  /// True when the window admits the next frame right now (always true
  /// when alone in the region: there is no peer to grant credit).
  bool flow_admits() const;
  /// Deliver locally and transmit the oldest queued frame of window_.
  void transmit_next();
  /// Transmit queued frames while credit allows.
  void drain_window();

  void cancel(TimerHandle& t);
  Duration request_timeout(MemberId peer) const;
  SequenceTracker& tracker(MemberId source) { return trackers_[source]; }

  // --- endpoint_state.cc: ticks, their handlers, flow glue ---------------

  // Session messages (sender only).
  void session_tick();
  // Flow control (Config::flow): periodic CreditAcks to the region's
  // senders + queue drain.
  void credit_tick();
  // Cooperative budget coordination: periodic regional digest multicast.
  void digest_tick();
  // Stability baseline support.
  void history_tick();
  void recompute_stability();
  proto::History build_history() const;

  void handle_credit_ack(const proto::CreditAck& a, MemberId from);
  void handle_buffer_digest(const proto::BufferDigest& d, MemberId from);
  void handle_history(const proto::History& h, MemberId from);
  /// Apply a piggybacked cursor block from a region peer's Data/Session
  /// frame (same credit semantics as a CreditAck's cursor list).
  void handle_piggyback(const std::vector<proto::ReceiveCursor>& cursors,
                        MemberId from);

  /// This member's per-source receive cursors — the piggyback block on
  /// outgoing Data/Session frames; each region source's own entry is the
  /// payload of the CreditAck it is sent.
  std::vector<proto::ReceiveCursor> cursor_snapshot() const;
  /// The live view minus self and currently-unreachable peers (flow
  /// control's peer universe), sorted.
  const std::vector<MemberId>& flow_peers() const;
  /// True when an active partition severs us from `m`.
  bool flow_unreachable(MemberId m) const;

  // --- endpoint_recovery.cc: the recovery engine -------------------------

  void handle_local_request(const proto::LocalRequest& r, MemberId from);
  void handle_remote_request(const proto::RemoteRequest& r, MemberId from);
  void handle_escalate(const proto::Escalate& e, MemberId from);
  void handle_search_request(const proto::SearchRequest& r, MemberId from);
  void handle_repair(const proto::Repair& r, MemberId from);
  void handle_regional_repair(const proto::RegionalRepair& r, MemberId from);
  void handle_search_found(const proto::SearchFound& r, MemberId from);

  /// The rung of §3.3's ladder that answered a request.
  enum class Answer { kRepaired, kAwaited, kForwarded, kUnanswered };
  /// §3.3's ladder, shared by RemoteRequest, Escalate and SearchRequest:
  /// repair `requester` from the buffer; else, if the message was never
  /// received, record the requester as a waiter and recover it (recoveries
  /// climb from escalation level `hop`); else, received and discarded,
  /// forward the request to a holder a recent search located. kUnanswered
  /// leaves locating a bufferer to the caller.
  Answer answer_request(const MessageId& id, MemberId requester,
                        std::uint32_t hop);
  /// Count and send a Repair of `d` to `to`.
  void send_repair(MemberId to, const proto::Data& d, bool remote);
  // On receipt of a message: serve its waiters and the searches for it.
  void serve_waiters(const proto::Data& d);
  void satisfy_searches(const proto::Data& d);

  /// `escalate_hop` seeds RecoveryTask::escalate_hop before the first
  /// attempt goes out.
  void start_recovery(const MessageId& id, std::uint32_t escalate_hop = 0);
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
  /// at base << repair::kMaxBackoffShift. Identity outside hierarchy mode.
  Duration retry_backoff(Duration base, std::uint32_t attempts) const;

  // Search (§3.3). `direct` marks a requester that contacted this member
  // itself (a RemoteRequest or Escalate) rather than through another
  // searcher's SearchRequest; see SearchTask::own.
  void start_search(const MessageId& id, MemberId requester,
                    bool direct = true);
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

  // Anti-entropy engine (Bimodal Multicast [3]).
  void anti_entropy_tick();
  void pull_from_digest(const proto::History& digest, MemberId from);

  IHost& host_;
  Config cfg_;
  Env env_;
  std::unique_ptr<buffer::BufferStore> store_;
  RecordingSink& metrics_;
  std::function<void(const proto::Data&)> delivery_handler_;

  bool active_ = true;
  // Every timer this endpoint arms is tracked by a handle below, in a task
  // map, or by the buffer store, so halt() can cancel all of them: no
  // callback outlives the endpoint.
  TimerHandle session_timer_ = kNoTimer;
  /// Variable Session heartbeat: the spacing the armed session timer was
  /// scheduled with, and flow_.send_seq() at the last tick.
  Duration session_gap_;
  std::uint64_t session_seq_ = 0;
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
  // advertised on any channel (piggybacked frame or CreditAcks). The credit
  // tick suppresses its CreditAcks while the live snapshot still equals this
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
  // id -> (holder, recorded_at); entries expire after kSearchCacheTtl.
  std::unordered_map<MessageId, std::pair<MemberId, TimePoint>> found_cache_;
  // id -> when we last multicast SearchFound for it ourselves.
  std::unordered_map<MessageId, TimePoint> last_announce_;
  // Negative cache: searches we abandoned after max_attempts. Without it,
  // probes from other (still-active) searchers would resurrect our task and
  // a futile search would sustain itself forever. Expires with
  // kSearchCacheTtl; cleared if the message or a holder turns up.
  std::unordered_map<MessageId, TimePoint> search_given_up_;
  bool search_abandoned(const MessageId& id);

  // Stability baseline state. stability_policy_ is the store's policy when
  // it is the stability policy (the History exchange runs exactly then).
  buffer::StabilityPolicy* stability_policy_ = nullptr;
  buffer::StabilityTracker stability_;

  // Hash-direct lookup [11] runs exactly when the store's policy is the
  // hash-based one, over that policy's k. Scratch reused, no per-call allocs.
  const buffer::HashBasedPolicy* hash_policy_ = nullptr;
  buffer::BuffererSelector selector_;
  std::vector<MemberId> bufferer_scratch_;
};

}  // namespace rrmp

// BufferStore: the single concrete storage layer behind every retention
// policy.
//
// One store per member. It owns:
//   - ordered flat storage (sorted vector keyed by MessageId) of entries
//     whose payloads are refcounted SharedBytes — iteration order is id
//     order, deterministic across runs and shard counts;
//   - byte accounting in wire-encoded Data-frame bytes (the same
//     definition the traffic stats use; see proto::encoded_size overloads);
//   - duplicate suppression and the handoff-upgrade rule;
//   - observer notification for callers that watch buffer events (the
//     Figure 6 runner, determinism tests);
//   - handoff drains on graceful leave;
//   - a per-member BufferBudget with an explicit admission + eviction
//     protocol: when an insert would exceed the budget the store evicts its
//     most expendable entries (pick_victims; deterministic tie-break by
//     MessageId); a message larger than the whole budget is rejected.
//     Eviction is the store's decision: policies only decide retention.
//
// The store drives its RetentionPolicy: store()/accept_handoff() call the
// policy's on_stored/on_handoff hooks after accounting and observer
// notification, and on_request_seen() refreshes the entry's activity clock
// before forwarding the feedback. Policies mutate retention state only
// through the store's mutators (touch / promote_long_term / discard / arm),
// never by holding entry references: entries move when the flat storage
// grows.
//
// The store owns every entry timer. An entry holds at most one: arm()
// cancels the previous handle before scheduling the next, departure
// cancels it, and cancel_timers() cancels the rest when the owning member
// halts. A handle that already fired is never cleared, because cancelling
// it is a no-op (PolicyEnv::cancel).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "buffer/budget.h"
#include "buffer/coordination.h"
#include "buffer/policy.h"
#include "proto/messages.h"

namespace rrmp::buffer {

/// Outcome of an admission attempt.
enum class Admission {
  kStored,     // a new entry was created (evicting others if needed)
  kDuplicate,  // already present (a handoff may have upgraded it)
  kRejected,   // budget cannot ever fit this message; nothing stored
};

class BufferStore {
 public:
  /// The store owns its policy. `budget` defaults to unlimited and
  /// `coordination` to disabled, which reproduces the original unbounded,
  /// uncoordinated policies bit-for-bit.
  explicit BufferStore(std::unique_ptr<RetentionPolicy> policy,
                       BufferBudget budget = {},
                       CoordinationParams coordination = {});
  ~BufferStore();

  BufferStore(const BufferStore&) = delete;
  BufferStore& operator=(const BufferStore&) = delete;

  /// Must be called exactly once before any other method; binds the policy.
  void bind(PolicyEnv* env);

  /// Observer for store/discard/promotion/eviction events; none is
  /// installed by default. `long_term` reflects the entry's phase at event
  /// time.
  using Observer =
      std::function<void(const MessageId&, BufferEvent, bool long_term)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  RetentionPolicy& policy() { return *policy_; }
  const RetentionPolicy& policy() const { return *policy_; }

  // --- admission ---------------------------------------------------------

  /// A message was received; admit it (the policy decides for how long it
  /// stays). Duplicate stores of an id already present are ignored.
  Admission store(const proto::Data& msg);

  /// Receive a long-term buffer transfer from a leaving member (§3.2). A
  /// handed-off copy upgrades an existing short-term entry to long-term.
  Admission accept_handoff(const proto::Data& msg);

  /// Feedback: a retransmission request for `id` was observed (paper §3.1).
  /// Refreshes the entry's activity clock, then forwards to the policy.
  /// No-op when `id` is not currently buffered.
  void on_request_seen(const MessageId& id);

  /// Remove and return the messages to transfer when this member leaves
  /// (long-term entries; the whole archive when the policy says so).
  std::vector<proto::Data> drain_for_handoff();

  // --- queries -----------------------------------------------------------

  bool has(const MessageId& id) const { return find(id) != nullptr; }
  std::optional<proto::Data> get(const MessageId& id) const;
  bool is_long_term(const MessageId& id) const;

  std::size_t count() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }
  const BufferStats& stats() const { return stats_; }
  const BufferBudget& budget() const { return budget_; }

  /// The entries an admission under budget pressure evicts to free `need`
  /// accounted bytes, most expendable first: short-term entries before
  /// long-term ones (long-term copies are the region's recovery capital),
  /// least-recently-active first, ties broken by ascending MessageId, so
  /// every member and every shard count evicts the same victims in the
  /// same order. With coordination on, a replica cost model ranks first:
  /// an entry with >= kRedundancyThreshold known regional replicas whose
  /// keeper is another member is expendable, most replicated first, while
  /// keeper copies and sole copies are protected (taken only when nothing
  /// redundant remains). Takes entries until their bytes cover `need`.
  std::vector<MessageId> pick_victims(std::size_t need) const;

  // --- region coordination (cooperative budgets) -------------------------

  const CoordinationParams& coordination() const { return coordination_; }

  /// Neighbor digest view; fed by the endpoint's BufferDigest handler and
  /// consulted by cost-aware eviction and the shed path.
  DigestTable& digests() { return digests_; }
  const DigestTable& digests() const { return digests_; }

  /// Approximate region replica count of a *buffered* entry: our copy plus
  /// every neighbor currently advertising `id`. Returns 0 when `id` is not
  /// buffered here.
  std::size_t known_replicas(const MessageId& id) const;

  /// This member's digest advertisement: bytes in use plus the held id set
  /// compressed into maximal per-source runs (entries are id-sorted, so one
  /// ascending pass suffices).
  proto::BufferDigest build_digest() const;

  /// Transport hook for the shed path: called with a sole-copy victim and
  /// the chosen least-loaded neighbor; returns true once the copy was sent
  /// (the store then records the departure as a shed, not an eviction).
  /// Unset or returning false falls back to a plain eviction.
  using ShedHandler = std::function<bool(const proto::Data&, MemberId target)>;
  void set_shed_handler(ShedHandler fn) { shed_handler_ = std::move(fn); }

  /// Read-only snapshot of one entry's retention state.
  struct EntryView {
    MessageId id;
    std::size_t bytes = 0;  // accounted (wire-encoded) size
    TimePoint stored_at;
    TimePoint last_activity;
    bool long_term = false;
    std::uint64_t timer = 0;  // last armed timer (may have fired); 0 if none
  };
  std::optional<EntryView> view(const MessageId& id) const;

  /// Visit every entry in ascending id order (deterministic). `fn` must not
  /// mutate the store; collect ids first, then mutate.
  void for_each_entry(const std::function<void(const EntryView&)>& fn) const;

  // --- policy-facing mutators -------------------------------------------

  /// Refresh `id`'s activity clock to now. No-op if absent.
  void touch(const MessageId& id);

  /// Move `id` into the long-term phase (idempotent). No-op if absent.
  void promote_long_term(const MessageId& id);

  /// Remove an entry, cancel its pending timer, run accounting, notify the
  /// observer. Safe if absent.
  void discard(const MessageId& id,
               BufferEvent reason = BufferEvent::kDiscarded);

  /// Replace `id`'s timer: cancel the previous one, then run `fn` after
  /// `delay`. The store cancels it when the entry departs
  /// (discard/evict/handoff). No-op if absent.
  void arm(const MessageId& id, Duration delay, sim::Callback fn);

  /// Cancel every entry's timer (the owning member halted). The entries
  /// stay; nothing fires for them afterwards unless re-armed.
  void cancel_timers();

  /// Test/harness hook: drop `id` immediately (as if idle-discarded).
  void force_discard(const MessageId& id) { discard(id); }

 private:
  /// Holds the core frame only: a stored copy never carries piggybacked
  /// cursors, so `id` and `payload` rebuild it exactly (frame()).
  struct Entry {
    MessageId id;
    SharedBytes payload;
    std::size_t bytes = 0;  // accounted size, fixed at admission
    TimePoint stored_at;
    TimePoint last_activity;
    bool long_term = false;
    /// Arrived via a leave-time Handoff or a Shed (or was upgraded by
    /// one): such a copy is a transferred responsibility, and the shed
    /// path refuses to bounce it onward until it has aged one digest
    /// period (anti-ping-pong damping, see remove_victim).
    bool via_handoff = false;
    std::uint64_t timer = 0;  // last armed timer for this entry, if any
  };

  Admission insert(const proto::Data& msg, bool via_handoff);
  /// Evict pick_victims' choice until `msg` fits. Returns false when the
  /// message can never fit (larger than the whole budget).
  bool make_room(std::size_t incoming_bytes);
  /// Remove one budget-pressure victim: shed sole copies to a neighbor when
  /// coordination allows it, evict otherwise.
  void remove_victim(const MessageId& victim);
  Entry* find(const MessageId& id);
  const Entry* find(const MessageId& id) const;
  void notify(const MessageId& id, BufferEvent ev, bool long_term);
  static EntryView view_of(const Entry& e);
  static proto::Data frame(const Entry& e) { return {e.id, e.payload}; }

  std::unique_ptr<RetentionPolicy> policy_;
  BufferBudget budget_;
  CoordinationParams coordination_;
  DigestTable digests_;
  ShedHandler shed_handler_;
  PolicyEnv* env_ = nullptr;
  Observer observer_;
  std::vector<Entry> entries_;  // sorted by id: deterministic iteration
  std::size_t bytes_ = 0;
  BufferStats stats_;
};

}  // namespace rrmp::buffer

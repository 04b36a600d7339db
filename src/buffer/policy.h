// Buffer-management decision layer.
//
// Storage and decision-making are split into two layers:
//
//   BufferStore      (store.h)  — the one concrete container every member
//                                 owns: ordered flat storage of refcounted
//                                 payloads, byte accounting, duplicate
//                                 suppression, observer notification, handoff
//                                 drains, and budget admission + eviction.
//   RetentionPolicy  (here)     — a pure decision strategy plugged into the
//                                 store. It holds NO message data; it reacts
//                                 to store events (on_stored / on_handoff /
//                                 on_request_seen) and drives retention
//                                 through the store's mutators (touch /
//                                 promote / discard / arm). Eviction under
//                                 the budget is the store's own decision.
//
// Concrete strategies:
//
//   TwoPhasePolicy       — the paper's contribution (§3.1–§3.2): feedback-
//                          based short-term buffering + randomized long-term
//                          buffering with expected C bufferers per region.
//   FixedTimePolicy      — Bimodal Multicast's simple policy: every message
//                          buffered for a fixed time (§2, [3]).
//   BufferEverythingPolicy — RMTP-style repair server: keep everything (§1).
//   HashBasedPolicy      — the authors' earlier deterministic scheme [11]:
//                          hash(member, message) selects k bufferers.
//   StabilityPolicy      — stability-detection baseline [8]: discard when
//                          the whole region is known to have the message.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/time.h"
#include "common/types.h"
#include "proto/messages.h"
#include "sim/callback.h"

namespace rrmp::buffer {

class BufferStore;

/// Host services a store and its policy use; implemented by the protocol
/// endpoint. Timers are the store's: policies arm them through
/// BufferStore::arm, which owns each entry's handle.
class PolicyEnv {
 public:
  virtual ~PolicyEnv() = default;
  virtual TimePoint now() const = 0;
  /// One-shot timer; returns a handle for cancel(). Handle 0 is invalid.
  virtual std::uint64_t schedule(Duration d, sim::Callback fn) = 0;
  /// Cancelling handle 0, or one that already fired, is a no-op.
  virtual void cancel(std::uint64_t timer) = 0;
  virtual RandomEngine& rng() = 0;
  /// Alive members of the region in ascending id order, including self
  /// (the two-phase draw's n; hash-based selection; the shed path's
  /// DigestTable::least_loaded binary-searches it).
  virtual const std::vector<MemberId>& region_members() const = 0;
  virtual MemberId self() const = 0;
};

enum class BufferEvent {
  kStored,             // message entered the buffer
  kPromotedLongTerm,   // survived the idle decision (two-phase) or handoff
  kDiscarded,          // message left the buffer by policy decision
  kHandedOff,          // message left via handoff to another member
  kEvicted,            // message left under budget pressure (copy lost here)
  kShedHandoff,        // budget pressure, but the copy was pushed to a
                       // neighbor (best-effort, like a leave-time handoff)
};

struct BufferStats {
  std::uint64_t stored = 0;
  std::uint64_t discarded = 0;
  std::uint64_t promoted_long_term = 0;
  std::uint64_t handed_off = 0;
  /// Departures forced by the budget (admission made room). Excludes shed
  /// handoffs: an eviction loses this member's copy, a shed relocates it.
  std::uint64_t evicted = 0;
  /// Budget-forced departures that were pushed to a neighbor instead of
  /// discarded (cooperative coordination only). Kept separate from
  /// `evicted` so capacity reports don't conflate departures with a
  /// surviving copy in flight from ones where the copy is simply lost.
  /// Counted at send time: like a leave-time Handoff, the transfer is
  /// fire-and-forget, so a shed frame lost to control loss (or refused by
  /// the receiver's own budget) still counts here.
  std::uint64_t shed = 0;
  /// Admissions refused outright (message larger than the whole budget).
  std::uint64_t rejected = 0;
  std::size_t peak_count = 0;
  std::size_t peak_bytes = 0;
  /// Sum over all departed messages of (departure - store) time.
  Duration total_buffer_time = Duration::zero();
};

/// Pure retention strategy. Bound to exactly one BufferStore; all message
/// data lives in the store, the policy only decides how long it stays.
class RetentionPolicy {
 public:
  virtual ~RetentionPolicy();

  /// Called exactly once by the owning BufferStore.
  void bind(BufferStore* store, PolicyEnv* env);

  /// True if drain_for_handoff() should transfer short-term entries too
  /// (repair servers hand over their whole archive).
  virtual bool handoff_includes_short_term() const { return false; }

  /// A new entry for `id` was admitted (not a duplicate); arm its timer
  /// (BufferStore::arm), if it needs one.
  virtual void on_stored(const MessageId& id) = 0;

  /// Entry for `id` arrived via handoff from a leaving member (default:
  /// same as stored; two-phase keeps it long-term immediately).
  virtual void on_handoff(const MessageId& id) { on_stored(id); }

  /// Feedback: a retransmission request for `id` was observed (§3.1). The
  /// store has already refreshed the entry's last_activity.
  virtual void on_request_seen(const MessageId& id) { (void)id; }

 protected:
  BufferStore& store() { return *store_; }
  const BufferStore& store() const { return *store_; }
  PolicyEnv& env() { return *env_; }
  const PolicyEnv& env() const { return *env_; }

 private:
  BufferStore* store_ = nullptr;
  PolicyEnv* env_ = nullptr;
};

}  // namespace rrmp::buffer

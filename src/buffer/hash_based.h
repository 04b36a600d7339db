// The authors' earlier *deterministic* buffering scheme (paper §1, §3.4;
// Ozkasap et al. [11]): a hash of (member address, message id) selects which
// members buffer a message. Any member can recompute the bufferer set and
// request retransmissions from it directly — no search needed — at the cost
// of hashing the whole membership per message and of awkward behaviour under
// membership dynamics (§3.4: "it is not clear how [handoff] can be done with
// a deterministic algorithm").
//
// Selection is rendezvous (highest-random-weight) hashing: the k members
// with the smallest hash(member, id) buffer the message. Every member of a
// region computes the same set from the same view.
#pragma once

#include <vector>

#include "buffer/policy.h"
#include "buffer/store.h"

namespace rrmp::buffer {

/// The k members of `members` with the smallest hash(member, id); the common
/// lookup used by both the policy (should *I* buffer?) and requesters (who
/// buffers?). Deterministic in (id, members, k); independent of member order.
std::vector<MemberId> hash_bufferers(const MessageId& id,
                                     const std::vector<MemberId>& members,
                                     std::size_t k);

/// The score function behind hash_bufferers, exposed for tests.
std::uint64_t hash_score(const MessageId& id, MemberId member);

/// Reusable rendezvous-hash selector: identical results to hash_bufferers,
/// but the score and output buffers persist across calls, so per-message
/// selection on the hot path (HashBasedPolicy::on_stored, hash-direct
/// request targeting) stops allocating two vectors per message.
class BuffererSelector {
 public:
  /// Selects into an internal buffer; the reference is valid until the next
  /// select() call on this instance.
  const std::vector<MemberId>& select(const MessageId& id,
                                      const std::vector<MemberId>& members,
                                      std::size_t k);

  /// True iff `member` is in hash_bufferers(id, members, k) — the policy's
  /// "should I buffer?" test, without materializing the selected set's order.
  bool selects(const MessageId& id, const std::vector<MemberId>& members,
               std::size_t k, MemberId member);

 private:
  std::vector<std::pair<std::uint64_t, MemberId>> scored_;
  std::vector<MemberId> out_;
};

struct HashBasedParams {
  /// Bufferers per region per message.
  std::size_t k = 6;
  /// How long non-selected members keep a message to serve the initial wave
  /// of recovery traffic before the hashed set takes over. The selected
  /// bufferers keep it for the session.
  Duration grace = Duration::millis(40);

  friend bool operator==(const HashBasedParams&, const HashBasedParams&) = default;
};

class HashBasedPolicy final : public RetentionPolicy {
 public:
  explicit HashBasedPolicy(HashBasedParams params) : params_(params) {}

  const HashBasedParams& params() const { return params_; }

  void on_stored(const MessageId& id) override;

  /// A transferred copy (leave-time handoff or coordination shed) is a
  /// responsibility we accept even though the hash set does not select us
  /// — the sender chose us by load, not by hash, and may have discarded
  /// the region's last copy on the strength of it. Without this override
  /// the default (on_stored) would arm the non-bufferer grace timer and
  /// quietly destroy the copy the transfer was meant to preserve (the
  /// §3.4 awkwardness of handoff under deterministic schemes, resolved in
  /// favour of keeping the copy).
  void on_handoff(const MessageId& id) override;

 private:
  void grace_expired(const MessageId& id);

  HashBasedParams params_;
  BuffererSelector selector_;  // reused across stores: no per-message allocs
};

}  // namespace rrmp::buffer

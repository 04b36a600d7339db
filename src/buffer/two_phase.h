// The paper's two-phase buffering algorithm (§3.1–§3.2).
//
// Phase 1 (feedback-based short-term buffering): a stored message stays
// buffered until no retransmission request for it has been observed for the
// idle threshold T. The probability that a member sees no request while a
// fraction p of an n-member region misses the message is
// (1 - 1/(n-1))^(np) ≈ e^(-p), so T of silence implies the region has it.
//
// Phase 2 (randomized long-term buffering): when a message becomes idle the
// member keeps it with probability P = C / n, so the region's long-term
// bufferer count is Binomial(n, C/n) ≈ Poisson(C) and the per-member load is
// spread evenly. A long-term copy is eventually discarded after
// long_term_ttl ("has not been used for such a long time that it is highly
// unlikely any member may still need it"); a request for a long-term copy
// refreshes that clock.
//
// On a voluntary leave, the store's drain_for_handoff() hands long-term
// entries to randomly selected region members so no message becomes
// unrecoverable.
#pragma once

#include "buffer/policy.h"
#include "buffer/store.h"

namespace rrmp::buffer {

struct TwoPhaseParams {
  /// Idle threshold T; the paper uses 4x the maximum intra-region RTT.
  Duration idle_threshold = Duration::millis(40);
  /// Expected number of long-term bufferers per region.
  double C = 6.0;
  /// Eventual discard of idle long-term copies; infinite() disables.
  Duration long_term_ttl = Duration::infinite();

  friend bool operator==(const TwoPhaseParams&, const TwoPhaseParams&) = default;
};

class TwoPhasePolicy final : public RetentionPolicy {
 public:
  explicit TwoPhasePolicy(TwoPhaseParams params) : params_(params) {}

  const TwoPhaseParams& params() const { return params_; }

  void on_stored(const MessageId& id) override;
  void on_handoff(const MessageId& id) override;
  void on_request_seen(const MessageId& id) override;

 private:
  void arm_idle_check(const MessageId& id);
  void idle_check(const MessageId& id);
  void arm_long_term_ttl(const MessageId& id);
  void long_term_check(const MessageId& id);

  TwoPhaseParams params_;
};

}  // namespace rrmp::buffer

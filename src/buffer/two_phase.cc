#include "buffer/two_phase.h"

#include <algorithm>

namespace rrmp::buffer {

void TwoPhasePolicy::on_stored(const MessageId& id) { arm_idle_check(id); }

void TwoPhasePolicy::on_handoff(const MessageId& id) {
  // Responsibility transferred from a leaving long-term bufferer: skip the
  // idle phase and the random draw; we are a long-term bufferer now.
  store().promote_long_term(id);
  arm_long_term_ttl(id);
}

void TwoPhasePolicy::on_request_seen(const MessageId& id) {
  // The store refreshed last_activity already.
  // Short-term: the pending idle check re-arms itself off last_activity.
  // Long-term: refresh the eventual-discard clock.
  if (store().is_long_term(id)) arm_long_term_ttl(id);
}

void TwoPhasePolicy::arm_idle_check(const MessageId& id) {
  auto v = store().view(id);
  TimePoint due = v->last_activity + params_.idle_threshold;
  store().arm(id, due - env().now(), [this, id] { idle_check(id); });
}

void TwoPhasePolicy::idle_check(const MessageId& id) {
  auto v = store().view(id);
  if (!v) return;
  if (v->long_term) {
    // Upgraded (handoff) while the idle check was pending: the entry owes
    // the long-term lifecycle now, not another idle decision.
    arm_long_term_ttl(id);
    return;
  }
  TimePoint idle_at = v->last_activity + params_.idle_threshold;
  if (env().now() < idle_at) {
    // A request arrived since this check was armed; try again later.
    arm_idle_check(id);
    return;
  }
  // The message is idle (§3.1). Random long-term decision (§3.2): keep with
  // probability P = C/n so the expected bufferer count per region is C.
  std::size_t n = std::max<std::size_t>(env().region_members().size(), 1);
  double p = params_.C / static_cast<double>(n);
  if (env().rng().bernoulli(p)) {
    store().promote_long_term(id);
    arm_long_term_ttl(id);
  } else {
    store().discard(id);
  }
}

void TwoPhasePolicy::arm_long_term_ttl(const MessageId& id) {
  if (params_.long_term_ttl.is_infinite()) return;
  store().arm(id, params_.long_term_ttl, [this, id] { long_term_check(id); });
}

void TwoPhasePolicy::long_term_check(const MessageId& id) {
  auto v = store().view(id);
  if (!v) return;
  TimePoint due = v->last_activity + params_.long_term_ttl;
  if (env().now() < due) {
    // Used since the timer was armed; keep it around for another period.
    store().arm(id, due - env().now(), [this, id] { long_term_check(id); });
    return;
  }
  store().discard(id);
}

}  // namespace rrmp::buffer

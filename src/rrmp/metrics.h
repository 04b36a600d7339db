// Protocol observability.
//
// Endpoints report protocol events to a RecordingSink, which accumulates
// counters, recovery latencies and three per-message facts: remote-request
// counts, the first remote repair and the last delivery. It keeps no event
// streams, so its memory grows with messages and recoveries, not with
// deliveries. A reader that needs individual events (the Figure 6 runner,
// narrated examples, determinism tests) installs
// Endpoint::set_delivery_handler or BufferStore::set_observer on the
// members it watches.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "common/types.h"

namespace rrmp {

class RecordingSink {
 public:
  struct Counters {
    std::uint64_t delivered = 0;
    std::uint64_t losses_detected = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t local_requests_sent = 0;
    std::uint64_t remote_requests_sent = 0;
    std::uint64_t repairs_sent = 0;
    std::uint64_t remote_repairs_sent = 0;
    std::uint64_t searches_started = 0;
    std::uint64_t search_hops = 0;
    std::uint64_t searches_completed = 0;
    std::uint64_t regional_multicasts = 0;
    std::uint64_t relays_suppressed = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t sends_deferred = 0;
    std::uint64_t credit_acks_sent = 0;
    std::uint64_t credit_acks_suppressed = 0;
    std::uint64_t flow_stall_remcasts = 0;
    std::uint64_t flow_stall_releases = 0;

    /// Field-wise sum — the single place that must grow with the struct
    /// (RecordingSink::merge folds per-region counters through it).
    Counters& operator+=(const Counters& o);

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  const Counters& counters() const { return counters_; }

  const std::vector<Duration>& recovery_latencies() const {
    return recovery_latencies_;
  }

  /// First REPAIR with remote=true sent for `id`, or TimePoint::max().
  TimePoint first_remote_repair(const MessageId& id) const;

  /// Remote requests sent for `id` (Figure-A3 lambda validation).
  std::uint64_t remote_requests_for(const MessageId& id) const;

  /// Time of the latest delivery of `id` at any member (a dissemination's
  /// makespan), or TimePoint::zero() if no member delivered it.
  TimePoint last_delivery(const MessageId& id) const;

  void clear();

  /// Deterministic merge of per-lane or per-worker sinks: counters and
  /// remote-request tallies are summed, latencies concatenated in input
  /// order, and per-message times folded by min (first remote repair) or
  /// max (last delivery). Inputs must cover disjoint member sets.
  static RecordingSink merge(std::span<const RecordingSink* const> sinks);

  // ---- recording -------------------------------------------------------
  // One method per protocol event. Each takes the member, message and time
  // even where it keeps only a count.

  void on_delivered(MemberId m, const MessageId& id, TimePoint t);
  void on_loss_detected(MemberId m, const MessageId& id, TimePoint t);
  void on_recovered(MemberId m, const MessageId& id, TimePoint t,
                    Duration latency);
  void on_request_sent(MemberId m, const MessageId& id, bool remote,
                       TimePoint t);
  void on_repair_sent(MemberId m, const MessageId& id, bool remote,
                      TimePoint t);
  void on_search_started(MemberId m, const MessageId& id, TimePoint t);
  void on_search_hop(MemberId from, MemberId to, const MessageId& id,
                     TimePoint t);
  void on_search_completed(MemberId holder, const MessageId& id, TimePoint t);
  void on_regional_multicast(MemberId m, const MessageId& id, TimePoint t);
  void on_relay_suppressed(MemberId m, const MessageId& id, TimePoint t);
  void on_handoff_sent(MemberId from, MemberId to, std::size_t messages,
                       TimePoint t);

  /// Flow control: multicast() admitted a frame but the send window was
  /// full, so it was queued instead of transmitted.
  void on_send_deferred(MemberId m, const MessageId& id, TimePoint t);
  /// Flow control: a credit tick sent CreditAcks (receive cursor +
  /// occupancy) to the region senders this member knows. A tick that knows
  /// none records neither this nor on_credit_ack_suppressed.
  void on_credit_ack_sent(MemberId m, TimePoint t);
  /// Flow control: a periodic CreditAck was withheld because the member's
  /// cursors were already fresh on its piggybacked Data/Session traffic.
  void on_credit_ack_suppressed(MemberId m, TimePoint t);
  /// Flow control: the sender re-multicast the frame wedging its window
  /// floor after the stall threshold (the retransmission of last resort).
  void on_flow_stall_remcast(MemberId m, const MessageId& id, TimePoint t);
  /// Flow control: re-multicast rounds could not move the floor, so the
  /// sender released the stalled peer's cursor binding (a rejoined member
  /// whose history is gone region-wide cannot close the gap; the window
  /// must not deadlock on it).
  void on_flow_stall_release(MemberId m, TimePoint t);

 private:
  Counters counters_;
  std::vector<Duration> recovery_latencies_;
  std::unordered_map<MessageId, TimePoint> first_remote_repair_;
  std::unordered_map<MessageId, TimePoint> last_delivery_;
  std::unordered_map<MessageId, std::uint64_t> remote_requests_by_id_;
};

}  // namespace rrmp

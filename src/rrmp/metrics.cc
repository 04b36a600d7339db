#include "rrmp/metrics.h"

namespace rrmp {
namespace {

void keep_earliest(std::unordered_map<MessageId, TimePoint>& times,
                   const MessageId& id, TimePoint t) {
  auto [it, inserted] = times.try_emplace(id, t);
  if (!inserted && t < it->second) it->second = t;
}

void keep_latest(std::unordered_map<MessageId, TimePoint>& times,
                 const MessageId& id, TimePoint t) {
  TimePoint& latest = times[id];  // a new entry starts at TimePoint::zero()
  if (t > latest) latest = t;
}

}  // namespace

TimePoint RecordingSink::first_remote_repair(const MessageId& id) const {
  auto it = first_remote_repair_.find(id);
  return it == first_remote_repair_.end() ? TimePoint::max() : it->second;
}

std::uint64_t RecordingSink::remote_requests_for(const MessageId& id) const {
  auto it = remote_requests_by_id_.find(id);
  return it == remote_requests_by_id_.end() ? 0 : it->second;
}

TimePoint RecordingSink::last_delivery(const MessageId& id) const {
  auto it = last_delivery_.find(id);
  return it == last_delivery_.end() ? TimePoint::zero() : it->second;
}

void RecordingSink::clear() { *this = RecordingSink(); }

// A field added to Counters without a line here would silently vanish from
// every merged (multi-lane or multi-worker) view.
static_assert(sizeof(RecordingSink::Counters) == 18 * sizeof(std::uint64_t));

RecordingSink::Counters& RecordingSink::Counters::operator+=(
    const Counters& o) {
  delivered += o.delivered;
  losses_detected += o.losses_detected;
  recoveries += o.recoveries;
  local_requests_sent += o.local_requests_sent;
  remote_requests_sent += o.remote_requests_sent;
  repairs_sent += o.repairs_sent;
  remote_repairs_sent += o.remote_repairs_sent;
  searches_started += o.searches_started;
  search_hops += o.search_hops;
  searches_completed += o.searches_completed;
  regional_multicasts += o.regional_multicasts;
  relays_suppressed += o.relays_suppressed;
  handoffs += o.handoffs;
  sends_deferred += o.sends_deferred;
  credit_acks_sent += o.credit_acks_sent;
  credit_acks_suppressed += o.credit_acks_suppressed;
  flow_stall_remcasts += o.flow_stall_remcasts;
  flow_stall_releases += o.flow_stall_releases;
  return *this;
}

RecordingSink RecordingSink::merge(
    std::span<const RecordingSink* const> sinks) {
  RecordingSink out;
  for (const RecordingSink* s : sinks) {
    out.counters_ += s->counters_;
    out.recovery_latencies_.insert(out.recovery_latencies_.end(),
                                   s->recovery_latencies_.begin(),
                                   s->recovery_latencies_.end());
    for (const auto& [id, t] : s->first_remote_repair_) {
      keep_earliest(out.first_remote_repair_, id, t);
    }
    for (const auto& [id, t] : s->last_delivery_) {
      keep_latest(out.last_delivery_, id, t);
    }
    for (const auto& [id, n] : s->remote_requests_by_id_) {
      out.remote_requests_by_id_[id] += n;
    }
  }
  return out;
}

void RecordingSink::on_delivered(MemberId, const MessageId& id, TimePoint t) {
  ++counters_.delivered;
  keep_latest(last_delivery_, id, t);
}

void RecordingSink::on_loss_detected(MemberId, const MessageId&, TimePoint) {
  ++counters_.losses_detected;
}

void RecordingSink::on_recovered(MemberId, const MessageId&, TimePoint,
                                 Duration latency) {
  ++counters_.recoveries;
  recovery_latencies_.push_back(latency);
}

void RecordingSink::on_request_sent(MemberId, const MessageId& id, bool remote,
                                    TimePoint) {
  if (remote) {
    ++counters_.remote_requests_sent;
    ++remote_requests_by_id_[id];
  } else {
    ++counters_.local_requests_sent;
  }
}

void RecordingSink::on_repair_sent(MemberId, const MessageId& id, bool remote,
                                   TimePoint t) {
  ++counters_.repairs_sent;
  if (remote) {
    ++counters_.remote_repairs_sent;
    keep_earliest(first_remote_repair_, id, t);
  }
}

void RecordingSink::on_search_started(MemberId, const MessageId&, TimePoint) {
  ++counters_.searches_started;
}

void RecordingSink::on_search_hop(MemberId, MemberId, const MessageId&,
                                  TimePoint) {
  ++counters_.search_hops;
}

void RecordingSink::on_search_completed(MemberId, const MessageId&,
                                        TimePoint) {
  ++counters_.searches_completed;
}

void RecordingSink::on_regional_multicast(MemberId, const MessageId&,
                                          TimePoint) {
  ++counters_.regional_multicasts;
}

void RecordingSink::on_relay_suppressed(MemberId, const MessageId&,
                                        TimePoint) {
  ++counters_.relays_suppressed;
}

void RecordingSink::on_handoff_sent(MemberId, MemberId, std::size_t,
                                    TimePoint) {
  ++counters_.handoffs;
}

void RecordingSink::on_send_deferred(MemberId, const MessageId&, TimePoint) {
  ++counters_.sends_deferred;
}

void RecordingSink::on_credit_ack_sent(MemberId, TimePoint) {
  ++counters_.credit_acks_sent;
}

void RecordingSink::on_credit_ack_suppressed(MemberId, TimePoint) {
  ++counters_.credit_acks_suppressed;
}

void RecordingSink::on_flow_stall_remcast(MemberId, const MessageId&,
                                          TimePoint) {
  ++counters_.flow_stall_remcasts;
}

void RecordingSink::on_flow_stall_release(MemberId, TimePoint) {
  ++counters_.flow_stall_releases;
}

}  // namespace rrmp

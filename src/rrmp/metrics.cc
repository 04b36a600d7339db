#include "rrmp/metrics.h"

namespace rrmp {

TimePoint RecordingSink::first_remote_repair(const MessageId& id) const {
  auto it = first_remote_repair_.find(id);
  return it == first_remote_repair_.end() ? TimePoint::max() : it->second;
}

std::uint64_t RecordingSink::remote_requests_for(const MessageId& id) const {
  auto it = remote_requests_by_id_.find(id);
  return it == remote_requests_by_id_.end() ? 0 : it->second;
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

namespace {

using Stream = const std::vector<RecordingSink::TimedEvent>& (
    RecordingSink::*)() const;

// Stable k-way merge of per-input time-ordered event streams: output is
// ordered by (at, input index, position), so it is globally time-sorted and
// independent of how inputs were produced (thread count, scheduling).
std::vector<RecordingSink::TimedEvent> merge_streams(
    std::span<const RecordingSink* const> sinks, Stream stream) {
  std::vector<RecordingSink::TimedEvent> out;
  std::size_t total = 0;
  for (const RecordingSink* s : sinks) total += (s->*stream)().size();
  out.reserve(total);
  std::vector<std::size_t> pos(sinks.size(), 0);
  while (out.size() < total) {
    std::size_t best = sinks.size();
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      const auto& v = (sinks[i]->*stream)();
      if (pos[i] >= v.size()) continue;
      if (best == sinks.size() ||
          v[pos[i]].at < (sinks[best]->*stream)()[pos[best]].at) {
        best = i;
      }
    }
    out.push_back((sinks[best]->*stream)()[pos[best]]);
    ++pos[best];
  }
  return out;
}

}  // namespace

RecordingSink RecordingSink::merge(
    std::span<const RecordingSink* const> sinks) {
  RecordingSink out;
  out.deliveries_ = merge_streams(sinks, &RecordingSink::deliveries);
  out.stores_ = merge_streams(sinks, &RecordingSink::stores);
  out.discards_ = merge_streams(sinks, &RecordingSink::discards);
  out.promotions_ = merge_streams(sinks, &RecordingSink::promotions);
  for (const RecordingSink* s : sinks) {
    out.counters_ += s->counters_;
    // Latencies concatenate in input order (only aggregates are consumed,
    // and the order is still deterministic for any shard count).
    out.recovery_latencies_.insert(out.recovery_latencies_.end(),
                                   s->recovery_latencies_.begin(),
                                   s->recovery_latencies_.end());
    for (const auto& [id, t] : s->first_remote_repair_) {
      auto [it, inserted] = out.first_remote_repair_.try_emplace(id, t);
      if (!inserted && t < it->second) it->second = t;
    }
    for (const auto& [id, n] : s->remote_requests_by_id_) {
      out.remote_requests_by_id_[id] += n;
    }
  }
  return out;
}

void RecordingSink::on_delivered(MemberId m, const MessageId& id, TimePoint t) {
  ++revision_;
  ++counters_.delivered;
  deliveries_.push_back(TimedEvent{t, m, id});
}

void RecordingSink::on_loss_detected(MemberId, const MessageId&, TimePoint) {
  ++revision_;
  ++counters_.losses_detected;
}

void RecordingSink::on_recovered(MemberId, const MessageId&, TimePoint,
                                 Duration latency) {
  ++revision_;
  ++counters_.recoveries;
  recovery_latencies_.push_back(latency);
}

void RecordingSink::on_buffer_stored(MemberId m, const MessageId& id,
                                     TimePoint t) {
  ++revision_;
  stores_.push_back(TimedEvent{t, m, id});
}

void RecordingSink::on_buffer_discarded(MemberId m, const MessageId& id,
                                        TimePoint t, bool) {
  ++revision_;
  discards_.push_back(TimedEvent{t, m, id});
}

void RecordingSink::on_promoted_long_term(MemberId m, const MessageId& id,
                                          TimePoint t) {
  ++revision_;
  promotions_.push_back(TimedEvent{t, m, id});
}

void RecordingSink::on_request_sent(MemberId, const MessageId& id, bool remote,
                                    TimePoint) {
  ++revision_;
  if (remote) {
    ++counters_.remote_requests_sent;
    ++remote_requests_by_id_[id];
  } else {
    ++counters_.local_requests_sent;
  }
}

void RecordingSink::on_repair_sent(MemberId, const MessageId& id, bool remote,
                                   TimePoint t) {
  ++revision_;
  ++counters_.repairs_sent;
  if (remote) {
    ++counters_.remote_repairs_sent;
    auto [it, inserted] = first_remote_repair_.try_emplace(id, t);
    if (!inserted && t < it->second) it->second = t;
  }
}

void RecordingSink::on_search_started(MemberId, const MessageId&, TimePoint) {
  ++revision_;
  ++counters_.searches_started;
}

void RecordingSink::on_search_hop(MemberId, MemberId, const MessageId&,
                                  TimePoint) {
  ++revision_;
  ++counters_.search_hops;
}

void RecordingSink::on_search_completed(MemberId, const MessageId&,
                                        TimePoint) {
  ++revision_;
  ++counters_.searches_completed;
}

void RecordingSink::on_regional_multicast(MemberId, const MessageId&,
                                          TimePoint) {
  ++revision_;
  ++counters_.regional_multicasts;
}

void RecordingSink::on_relay_suppressed(MemberId, const MessageId&,
                                        TimePoint) {
  ++revision_;
  ++counters_.relays_suppressed;
}

void RecordingSink::on_handoff_sent(MemberId, MemberId, std::size_t,
                                    TimePoint) {
  ++revision_;
  ++counters_.handoffs;
}

void RecordingSink::on_send_deferred(MemberId, const MessageId&, TimePoint) {
  ++revision_;
  ++counters_.sends_deferred;
}

void RecordingSink::on_credit_ack_sent(MemberId, TimePoint) {
  ++revision_;
  ++counters_.credit_acks_sent;
}

void RecordingSink::on_credit_ack_suppressed(MemberId, TimePoint) {
  ++revision_;
  ++counters_.credit_acks_suppressed;
}

void RecordingSink::on_flow_stall_remcast(MemberId, const MessageId&,
                                          TimePoint) {
  ++revision_;
  ++counters_.flow_stall_remcasts;
}

void RecordingSink::on_flow_stall_release(MemberId, TimePoint) {
  ++revision_;
  ++counters_.flow_stall_releases;
}

}  // namespace rrmp

#include "net/sim_network.h"

#include <cassert>
#include <stdexcept>

#include "common/logging.h"
#include "proto/codec.h"

namespace rrmp::net {
namespace {

// Stream-id domain for per-lane RNG forks (lane 0 keeps the parent stream,
// so a single-lane network draws the parent's own sequence).
constexpr std::uint64_t kLaneDomain = 0x9A7E0000ULL;

}  // namespace

SimNetwork::SimNetwork(const Topology& topology, RandomEngine rng)
    : topology_(topology), jitter_seed_(rng.seed()) {
  handlers_.assign(topology_.member_count(), nullptr);
  data_loss_.assign(topology_.member_count(), 0.0);
  member_lane_.assign(topology_.member_count(), 0);
  // The safe epoch window: no cross-lane path can undercut the minimum
  // topology edge.
  const Duration la = topology_.min_cross_region_latency();
  const std::size_t regions = topology_.region_count();
  if (regions < 2 || la <= Duration::zero() || la == Duration::infinite()) {
    // No usable lookahead: a single lane spanning every region.
    lanes_.emplace_back(std::move(rng));
    return;
  }
  lookahead_ = la;
  lanes_.reserve(regions);
  for (std::size_t l = 0; l < regions; ++l) {
    for (MemberId m : topology_.members_of(static_cast<RegionId>(l))) {
      member_lane_[m] = l;
    }
    // Lane 0 keeps the parent stream.
    lanes_.emplace_back(l == 0 ? rng : rng.fork(kLaneDomain + l));
  }
}

void SimNetwork::attach(MemberId m, MessageHandler* handler) {
  if (handler == nullptr) {
    throw std::invalid_argument("SimNetwork::attach: null handler");
  }
  if (m >= handlers_.size()) handlers_.resize(m + 1, nullptr);
  handlers_[m] = handler;
}

void SimNetwork::detach(MemberId m) {
  if (m < handlers_.size()) handlers_[m] = nullptr;
}

bool SimNetwork::attached(MemberId m) const {
  return m < handlers_.size() && handlers_[m] != nullptr;
}

void SimNetwork::set_partition(const std::vector<std::vector<MemberId>>& groups) {
  // Group 0 is the implicit group of unlisted members; listed group i
  // becomes i+1.
  std::vector<std::uint32_t> assignment(topology_.member_count(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (MemberId m : groups[g]) {
      if (m >= assignment.size()) {
        throw std::invalid_argument("set_partition: member out of range");
      }
      if (assignment[m] != 0) {
        throw std::invalid_argument("set_partition: member in two groups");
      }
      assignment[m] = static_cast<std::uint32_t>(g + 1);
    }
  }
  partition_group_ = std::move(assignment);
}

double SimNetwork::loss_rate(MemberId from, MemberId to,
                             double fallback) const {
  if (!link_loss_.empty()) {
    auto it = link_loss_.find({from, to});
    if (it != link_loss_.end()) return it->second;
  }
  auto it = member_loss_.find(to);
  return it == member_loss_.end() ? fallback : it->second;
}

Duration SimNetwork::delay(MemberId from, MemberId to) const {
  Duration d = topology_.one_way_latency(from, to);
  if (jitter_fraction_ > 0.0) {
    // A fixed factor per directed link keeps the link FIFO. Jitter only
    // stretches (factor >= 1), so it can never undercut the cross-lane
    // lookahead computed from base latencies.
    std::uint64_t link =
        jitter_seed_ ^ ((static_cast<std::uint64_t>(from) << 32) | to);
    double u = static_cast<double>(splitmix64(link) >> 11) * 0x1.0p-53;
    d = d.scaled(1.0 + jitter_fraction_ * u);
  }
  return d;
}

void SimNetwork::deliver(MemberId to, const proto::Message& msg,
                         MemberId from) {
  MessageHandler* handler = to < handlers_.size() ? handlers_[to] : nullptr;
  if (handler == nullptr) return;  // crashed or left: packet vanishes
  Lane& dst = lanes_[lane_of(to)];
  ++dst.stats.delivered;
  if (lane_of(from) != lane_of(to)) ++dst.stats.cross_lane_deliveries;
  handler->on_message(msg, from);
}

void SimNetwork::dispatch(Lane& src, std::size_t dst_lane, MemberId from,
                          MemberId to, MessagePtr msg) {
  TimePoint deliver_at = src.sim->now() + delay(from, to);
  if (&lanes_[dst_lane] == &src) {
    // this + two MemberIds + one shared_ptr: well inside sim::Callback's
    // inline buffer, so the delivery event never heap-allocates.
    src.sim->schedule_at(deliver_at,
                         [this, to, m = std::move(msg), from]() {
                           deliver(to, *m, from);
                         });
    return;
  }
  ++src.stats.cross_lane_sends;
  src.outbox.push_back(CrossLanePacket{deliver_at, from, to, std::move(msg)});
}

SimNetwork::Prepared SimNetwork::prepare(proto::Message msg) {
  Prepared p;
  p.wire_bytes = proto::encoded_size(msg);
  p.type_idx = static_cast<std::size_t>(proto::type_of(msg));
  if (codec_roundtrip_) {
    // One encode + one aliasing decode per logical send; payload blobs in
    // the decoded message borrow the refcounted wire buffer.
    auto decoded = proto::decode_shared(proto::encode_shared(msg));
    if (!decoded) {
      log::error("SimNetwork: codec round-trip failed for ",
                 proto::type_name(msg));
      return p;  // p.msg stays null; transmit counts the send, delivers none
    }
    p.msg = std::make_shared<const proto::Message>(std::move(*decoded));
  } else {
    p.msg = std::make_shared<const proto::Message>(std::move(msg));
  }
  return p;
}

void SimNetwork::transmit(MemberId from, MemberId to, const Prepared& p,
                          Loss loss) {
  Lane& src = lanes_[lane_of(from)];
  ++src.stats.sends;
  src.stats.bytes_sent += p.wire_bytes;
  if (p.type_idx < src.stats.sends_by_type.size()) {
    ++src.stats.sends_by_type[p.type_idx];
    src.stats.bytes_by_type[p.type_idx] += p.wire_bytes;
  }
  // A partition severs the link before any loss draw, consuming no
  // randomness: without one, the RNG stream is untouched.
  if (severed(from, to)) {
    ++src.stats.severed;
    return;
  }
  if (!p.msg) return;  // codec round-trip failed (already logged)
  bool lost = false;
  if (loss == Loss::kControl) {
    lost = src.rng.bernoulli(loss_rate(from, to, control_loss_));
  } else if (loss == Loss::kData) {
    // A deterministic drop schedule (transport-parity experiments) replaces
    // every draw and consumes no RNG; otherwise a lossy-edge receiver's
    // override replaces the sender's data loss for its link only.
    lost = data_drop_fn_
               ? data_drop_fn_(*p.msg, to)
               : src.rng.bernoulli(loss_rate(from, to, data_loss_[from]));
  }
  if (lost) {
    ++src.stats.dropped;
    return;
  }
  dispatch(src, lane_of(to), from, to, p.msg);
}

void SimNetwork::unicast(MemberId from, MemberId to, proto::Message msg) {
  transmit(from, to, prepare(std::move(msg)), Loss::kControl);
}

void SimNetwork::multicast_region(MemberId from, proto::Message msg) {
  RegionId r = topology_.region_of(from);
  Prepared p = prepare(std::move(msg));
  for (MemberId m : topology_.members_of(r)) {
    if (m == from) continue;
    transmit(from, m, p, Loss::kControl);
  }
}

void SimNetwork::ip_multicast(MemberId from, const proto::Message& msg) {
  Prepared p = prepare(msg);
  for (std::size_t m = 0; m < topology_.member_count(); ++m) {
    auto member = static_cast<MemberId>(m);
    if (member == from) continue;
    transmit(from, member, p, Loss::kData);
  }
}

void SimNetwork::ip_multicast_to(MemberId from, const proto::Message& msg,
                                 std::span<const MemberId> receivers) {
  Prepared p = prepare(msg);
  for (MemberId member : receivers) {
    if (member == from) continue;
    transmit(from, member, p, Loss::kNone);
  }
}

TrafficStats SimNetwork::stats() const {
  TrafficStats total;
  for (const Lane& lane : lanes_) {
    const TrafficStats& s = lane.stats;
    total.sends += s.sends;
    total.delivered += s.delivered;
    total.dropped += s.dropped;
    total.severed += s.severed;
    total.bytes_sent += s.bytes_sent;
    total.cross_lane_sends += s.cross_lane_sends;
    total.cross_lane_deliveries += s.cross_lane_deliveries;
    for (std::size_t i = 0; i < s.sends_by_type.size(); ++i) {
      total.sends_by_type[i] += s.sends_by_type[i];
      total.bytes_by_type[i] += s.bytes_by_type[i];
    }
  }
  return total;
}

std::size_t SimNetwork::exchange() {
  std::size_t moved = 0;
  for (Lane& src : lanes_) {
    for (CrossLanePacket& pkt : src.outbox) {
      Lane& dst = lanes_[lane_of(pkt.to)];
      dst.sim->schedule_at(pkt.deliver_at,
                           [this, to = pkt.to, m = std::move(pkt.msg),
                            from = pkt.from]() { deliver(to, *m, from); });
      ++moved;
    }
    src.outbox.clear();
  }
  return moved;
}

TimePoint SimNetwork::next_event_time() {
  TimePoint min = TimePoint::max();
  for (Lane& lane : lanes_) {
    TimePoint t = lane.sim->next_event_time();
    if (t < min) min = t;
  }
  return min;
}

std::uint64_t SimNetwork::events_fired() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.sim->fired_count();
  return total;
}

bool SimNetwork::outboxes_empty() const {
  for (const Lane& lane : lanes_) {
    if (!lane.outbox.empty()) return false;
  }
  return true;
}

}  // namespace rrmp::net

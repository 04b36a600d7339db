#include "harness/udp_runtime.h"

#include <chrono>

#include "common/logging.h"
#include "proto/codec.h"

namespace rrmp::harness {

class UdpRuntime::MemberHost final : public IHost {
 public:
  MemberHost(MemberId self, UdpRuntime& rt, net::UdpBus& bus,
             RandomEngine rng)
      : self_(self),
        region_(rt.topology_.region_of(self)),
        rt_(rt),
        bus_(bus),
        rng_(std::move(rng)) {}

  MemberId self() const override { return self_; }
  RegionId region() const override { return region_; }
  TimePoint now() const override { return bus_.now(); }

  TimerHandle schedule(Duration d, sim::Callback fn) override {
    return bus_.schedule_after(d, std::move(fn));
  }
  void cancel(TimerHandle timer) override { bus_.cancel(timer); }

  void send(MemberId to, proto::Message msg) override {
    bus_.send(self_, to, proto::encode(msg));
  }

  void multicast_region(proto::Message msg) override {
    // Encode once; the fan-out enqueues refcounted views of one wire image.
    SharedBytes wire(proto::encode(msg));
    for (MemberId m : rt_.topology_.members_of(region_)) {
      if (m != self_) bus_.send_shared(self_, m, wire);
    }
  }

  void ip_multicast(proto::Message msg) override {
    SharedBytes wire(proto::encode(msg));
    const auto* data = std::get_if<proto::Data>(&msg);
    for (MemberId m = 0; m < rt_.topology_.member_count(); ++m) {
      if (m == self_) continue;
      bool lost;
      if (rt_.config_.drop_fn && data != nullptr) {
        lost = rt_.config_.drop_fn(data->id.seq, m);
      } else {
        lost = rng_.bernoulli(rt_.config_.data_loss);
      }
      if (lost) continue;
      bus_.send_shared(self_, m, wire);
    }
  }

  RandomEngine& rng() override { return rng_; }

  // The runtime never changes its Directory after construction, so every
  // worker reads the same views without locking.
  const membership::RegionView& local_view() const override {
    return rt_.directory_.region_view(region_);
  }
  const membership::RegionView& parent_view() const override {
    return rt_.directory_.parent_view(region_);
  }

  Duration rtt_estimate(MemberId peer) const override {
    if (rt_.config_.emulate_latency) return rt_.topology_.rtt(self_, peer);
    // Raw loopback: sub-millisecond; a small floor keeps retries sane.
    return Duration::millis(2);
  }

 private:
  MemberId self_;
  RegionId region_;
  UdpRuntime& rt_;
  net::UdpBus& bus_;
  RandomEngine rng_;
};

UdpRuntime::UdpRuntime(const net::Topology& topology, UdpRuntimeConfig config)
    : topology_(topology), config_(std::move(config)), directory_(topology) {
  const std::size_t n = topology.member_count();
  std::size_t workers = ShardPool::resolve(config_.workers, n);
  chunk_ = (n + workers - 1) / workers;
  workers = (n + chunk_ - 1) / chunk_;

  // All worker buses share one clock epoch so their TimePoints agree.
  std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  for (std::size_t w = 0; w < workers; ++w) {
    net::UdpBusConfig bc = config_.bus;
    bc.first_member = w * chunk_;
    bc.owned_count = std::min(chunk_, n - w * chunk_);
    bc.epoch_ns = epoch;
    buses_.push_back(std::make_unique<net::UdpBus>(n, config_.base_port, bc));
    sinks_.push_back(std::make_unique<RecordingSink>());
  }
  pool_ = std::make_unique<ShardPool>(workers - 1);

  RandomEngine master(config_.seed);
  hosts_.reserve(n);
  endpoints_.reserve(n);
  for (MemberId m = 0; m < n; ++m) {
    net::UdpBus& bus = *buses_[worker_of(m)];
    RecordingSink& sink = *sinks_[worker_of(m)];
    hosts_.push_back(
        std::make_unique<MemberHost>(m, *this, bus, master.fork(m + 1)));
    auto policy = buffer::make_policy(config_.policy);
    endpoints_.push_back(std::make_unique<Endpoint>(
        *hosts_.back(), config_.protocol, std::move(policy), sink));
  }
  for (auto& bus : buses_) {
    if (config_.emulate_latency) {
      bus->set_delay_fn([this](MemberId from, MemberId to) {
        return topology_.one_way_latency(from, to);
      });
    }
    bus->set_receive_callback(
        [this](MemberId to, MemberId from, SharedBytes bytes) {
          // decode_shared keeps payload blobs aliasing `bytes`, the bus's
          // exact-size copy of the frame.
          std::optional<proto::Message> msg = proto::decode_shared(bytes);
          if (!msg) {
            log::warn("UdpRuntime: dropping undecodable datagram (",
                      bytes.size(), " bytes)");
            return;
          }
          endpoints_.at(to)->handle_message(*msg, from);
        });
  }
}

UdpRuntime::~UdpRuntime() {
  // Halt endpoints first so no timer callback outlives them.
  for (auto& ep : endpoints_) {
    if (ep) ep->halt();
  }
}

RecordingSink& UdpRuntime::metrics() {
  if (sinks_.size() == 1) return *sinks_[0];
  std::vector<const RecordingSink*> parts;
  parts.reserve(sinks_.size());
  for (const auto& s : sinks_) parts.push_back(s.get());
  merged_ = RecordingSink::merge(parts);
  return merged_;
}

std::uint64_t UdpRuntime::datagrams_sent() const {
  std::uint64_t total = 0;
  for (const auto& b : buses_) total += b->datagrams_sent();
  return total;
}

std::uint64_t UdpRuntime::datagrams_received() const {
  std::uint64_t total = 0;
  for (const auto& b : buses_) total += b->datagrams_received();
  return total;
}

void UdpRuntime::run_for(Duration d) {
  TimePoint deadline = buses_[0]->now() + d;
  if (buses_.size() == 1) {
    buses_[0]->run_until(deadline);
    return;
  }
  // One event loop per worker; each loop owns a disjoint member set and all
  // cross-worker traffic goes through the kernel, so no locking is needed.
  pool_->run(buses_.size(),
             [this, deadline](std::size_t w) { buses_[w]->run_until(deadline); });
}

bool UdpRuntime::all_received(const MessageId& id) const {
  for (const auto& ep : endpoints_) {
    if (!ep->has_received(id)) return false;
  }
  return true;
}

std::size_t UdpRuntime::count_received(const MessageId& id) const {
  std::size_t n = 0;
  for (const auto& ep : endpoints_) {
    if (ep->has_received(id)) ++n;
  }
  return n;
}

}  // namespace rrmp::harness

// SimHost: IHost implementation backed by the discrete-event simulator.
//
// One SimHost per member. Its views are the ground-truth Directory's: the
// paper assumes every member knows its own and its parent region's
// membership (§2), and joins, leaves and crashes reach the Directory from
// the cluster and its fault scripts.
#pragma once

#include <functional>

#include "membership/directory.h"
#include "net/sim_network.h"
#include "rrmp/host.h"

namespace rrmp::harness {

class SimHost final : public IHost, public net::MessageHandler {
 public:
  /// Timers are scheduled on the member's region-lane simulator
  /// (network.simulator_for(self)), so a host never touches another lane's
  /// event queue and regions can run on concurrent shard workers.
  SimHost(MemberId self, net::SimNetwork& network,
          const membership::Directory& directory, RandomEngine rng);

  /// Route incoming messages to the owning endpoint.
  using Receiver = std::function<void(const proto::Message&, MemberId from)>;
  void set_receiver(Receiver fn) { receiver_ = std::move(fn); }

  // IHost
  MemberId self() const override { return self_; }
  RegionId region() const override { return region_; }
  TimePoint now() const override;
  TimerHandle schedule(Duration d, sim::Callback fn) override;
  void cancel(TimerHandle timer) override;
  void send(MemberId to, proto::Message msg) override;
  void multicast_region(proto::Message msg) override;
  void ip_multicast(proto::Message msg) override;
  RandomEngine& rng() override { return rng_; }
  const membership::RegionView& local_view() const override {
    return directory_.region_view(region_);
  }
  const membership::RegionView& parent_view() const override {
    return directory_.parent_view(region_);
  }
  Duration rtt_estimate(MemberId peer) const override;
  std::uint64_t view_epoch() const override { return directory_.version(); }

  // net::MessageHandler
  void on_message(const proto::Message& msg, MemberId from) override;

 private:
  MemberId self_;
  RegionId region_;
  net::SimNetwork& network_;
  sim::Simulator& sim_;  // this member's region lane
  const membership::Directory& directory_;
  RandomEngine rng_;
  Receiver receiver_;
};

}  // namespace rrmp::harness

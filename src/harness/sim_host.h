// SimHost: IHost implementation backed by the discrete-event simulator.
//
// One SimHost per member. Views come from the ground-truth Directory,
// filtered by this member's *local* suspicions (set by its gossip failure
// detector), so a member that suspects a peer stops picking it as a
// recovery/search target even before the rest of the cluster notices.
#pragma once

#include <functional>
#include <unordered_set>

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
          const membership::Directory& directory, RandomEngine rng,
          double data_loss_rate);

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
  const membership::RegionView& local_view() const override;
  const membership::RegionView& parent_view() const override;
  Duration rtt_estimate(MemberId peer) const override;
  /// Both terms are monotone non-decreasing, so any view-affecting change
  /// strictly advances the sum.
  std::uint64_t view_epoch() const override {
    return directory_.version() + suspicion_epoch_;
  }

  // net::MessageHandler
  void on_message(const proto::Message& msg, MemberId from) override;

  /// Local failure-detector verdicts; filtered out of this member's views.
  void set_suspected(MemberId m, bool suspected);
  bool suspects(MemberId m) const { return suspected_.count(m) > 0; }

  /// Per-receiver loss of this member's initial IP multicast (fault
  /// injection may change it mid-run, at script barriers).
  void set_data_loss(double rate) { data_loss_rate_ = rate; }
  double data_loss() const { return data_loss_rate_; }

 private:
  void refresh_views() const;

  MemberId self_;
  RegionId region_;
  net::SimNetwork& network_;
  sim::Simulator& sim_;  // this member's region lane
  const membership::Directory& directory_;
  RandomEngine rng_;
  double data_loss_rate_;
  Receiver receiver_;
  std::unordered_set<MemberId> suspected_;

  // View caches, rebuilt when the directory version or suspicions change.
  mutable membership::RegionView local_cache_;
  mutable membership::RegionView parent_cache_;
  mutable std::uint64_t cached_version_ = 0;
  std::uint64_t suspicion_epoch_ = 1;
  mutable std::uint64_t cached_suspicion_epoch_ = 0;
};

}  // namespace rrmp::harness

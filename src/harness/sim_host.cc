#include "harness/sim_host.h"

namespace rrmp::harness {

SimHost::SimHost(MemberId self, net::SimNetwork& network,
                 const membership::Directory& directory, RandomEngine rng,
                 double data_loss_rate)
    : self_(self),
      region_(directory.region_of(self)),
      network_(network),
      sim_(network.simulator_for(self)),
      directory_(directory),
      rng_(std::move(rng)),
      data_loss_rate_(data_loss_rate) {}

TimePoint SimHost::now() const { return sim_.now(); }

TimerHandle SimHost::schedule(Duration d, sim::Callback fn) {
  return sim_.schedule_after(d, std::move(fn)).value;
}

void SimHost::cancel(TimerHandle timer) { sim_.cancel(sim::TimerId{timer}); }

void SimHost::send(MemberId to, proto::Message msg) {
  network_.unicast(self_, to, std::move(msg));
}

void SimHost::multicast_region(proto::Message msg) {
  network_.multicast_region(self_, std::move(msg));
}

void SimHost::ip_multicast(proto::Message msg) {
  network_.ip_multicast(self_, msg, data_loss_rate_);
}

void SimHost::refresh_views() const {
  if (cached_version_ == directory_.version() &&
      cached_suspicion_epoch_ == suspicion_epoch_) {
    return;
  }
  cached_version_ = directory_.version();
  cached_suspicion_epoch_ = suspicion_epoch_;

  std::vector<MemberId> local;
  for (MemberId m : directory_.region_view(region_).members()) {
    if (m == self_ || !suspected_.count(m)) local.push_back(m);
  }
  local_cache_ = membership::RegionView(std::move(local));

  std::vector<MemberId> parent;
  for (MemberId m : directory_.parent_view(region_).members()) {
    if (!suspected_.count(m)) parent.push_back(m);
  }
  parent_cache_ = membership::RegionView(std::move(parent));
}

const membership::RegionView& SimHost::local_view() const {
  refresh_views();
  return local_cache_;
}

const membership::RegionView& SimHost::parent_view() const {
  refresh_views();
  return parent_cache_;
}

Duration SimHost::rtt_estimate(MemberId peer) const {
  return network_.topology().rtt(self_, peer);
}

void SimHost::on_message(const proto::Message& msg, MemberId from) {
  if (receiver_) receiver_(msg, from);
}

void SimHost::set_suspected(MemberId m, bool suspected) {
  bool changed =
      suspected ? suspected_.insert(m).second : suspected_.erase(m) > 0;
  if (changed) ++suspicion_epoch_;
}

}  // namespace rrmp::harness

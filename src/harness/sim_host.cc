#include "harness/sim_host.h"

namespace rrmp::harness {

SimHost::SimHost(MemberId self, net::SimNetwork& network,
                 const membership::Directory& directory, RandomEngine rng)
    : self_(self),
      region_(directory.region_of(self)),
      network_(network),
      sim_(network.simulator_for(self)),
      directory_(directory),
      rng_(std::move(rng)) {}

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
  network_.ip_multicast(self_, msg);
}

Duration SimHost::rtt_estimate(MemberId peer) const {
  return network_.topology().rtt(self_, peer);
}

void SimHost::on_message(const proto::Message& msg, MemberId from) {
  if (receiver_) receiver_(msg, from);
}

}  // namespace rrmp::harness

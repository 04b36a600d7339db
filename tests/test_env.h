// Shared test fixture: a PolicyEnv backed by a private Simulator, for
// exercising buffer stores + retention policies in isolation from the
// protocol.
#pragma once

#include "buffer/budget.h"
#include "buffer/policy.h"
#include "proto/codec.h"
#include "sim/simulator.h"

namespace rrmp::testing {

class FakePolicyEnv final : public buffer::PolicyEnv {
 public:
  explicit FakePolicyEnv(std::size_t region_size = 10, MemberId self = 0,
                         std::uint64_t seed = 1)
      : rng_(seed), self_(self) {
    members_.resize(region_size);
    for (std::size_t i = 0; i < region_size; ++i) {
      members_[i] = static_cast<MemberId>(i);
    }
  }

  TimePoint now() const override { return sim_.now(); }
  std::uint64_t schedule(Duration d, sim::Callback fn) override {
    return sim_.schedule_after(d, std::move(fn)).value;
  }
  void cancel(std::uint64_t timer) override { sim_.cancel(sim::TimerId{timer}); }
  RandomEngine& rng() override { return rng_; }
  const std::vector<MemberId>& region_members() const override {
    return members_;
  }
  MemberId self() const override { return self_; }

  void set_members(std::vector<MemberId> members) {
    members_ = std::move(members);
  }

  sim::Simulator& sim() { return sim_; }
  void advance(Duration d) { sim_.run_until(sim_.now() + d); }

 private:
  sim::Simulator sim_;
  RandomEngine rng_;
  MemberId self_;
  std::vector<MemberId> members_;
};

inline proto::Data make_data(std::uint32_t source, std::uint64_t seq,
                             std::size_t bytes = 16) {
  return proto::Data{MessageId{source, seq},
                     std::vector<std::uint8_t>(bytes, 0x77)};
}

/// A byte budget that holds exactly `n` frames of make_data(..., bytes).
inline buffer::BufferBudget frame_budget(std::size_t n,
                                         std::size_t bytes = 16) {
  return buffer::BufferBudget{n * proto::encoded_size(make_data(1, 1, bytes))};
}

}  // namespace rrmp::testing

// Microbenchmarks: simulator event queue, buffer policy operations,
// rendezvous hashing, random view picks (google-benchmark).
#include <benchmark/benchmark.h>

#include <memory>

#include "buffer/hash_based.h"
#include "common/random.h"
#include "buffer/two_phase.h"
#include "membership/view.h"
#include "sim/simulator.h"

namespace {

using namespace rrmp;

void BM_SimulatorScheduleFire(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_at(TimePoint::from_us(t + (i * 37) % 1000), [] {});
    }
    sim.run(64);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorScheduleFire);

void BM_SimulatorCancel(benchmark::State& state) {
  sim::Simulator sim;
  for (auto _ : state) {
    auto id = sim.schedule_after(Duration::seconds(100), [] {});
    sim.cancel(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorCancel);

void BM_SimulatorScheduleFireSharedPtrCapture(benchmark::State& state) {
  // The delivery-event shape: this-pointer + shared_ptr + two ids (40
  // bytes), inline in sim::Callback — the packet-path hot capture.
  sim::Simulator sim;
  auto payload = std::make_shared<const int>(7);
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_at(TimePoint::from_us(t + (i * 37) % 1000),
                      [payload, &sink, to = i, from = i + 1] {
                        sink += *payload + static_cast<std::uint64_t>(to + from);
                      });
    }
    sim.run(64);
    t += 1000;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorScheduleFireSharedPtrCapture);

void BM_BinomialDraw(benchmark::State& state) {
  // range(0): n. At n·p = 6 the draw runs BINV inversion, the fig3/fig4
  // Monte Carlo kernel.
  RandomEngine rng(17);
  auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += rng.binomial(n, 0.06);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialDraw)->Arg(100);

// Minimal PolicyEnv over a Simulator for buffer-op microbenchmarks.
class BenchEnv final : public buffer::PolicyEnv {
 public:
  BenchEnv() : rng_(1) {
    members_.resize(100);
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i] = static_cast<MemberId>(i);
    }
  }
  TimePoint now() const override { return sim_.now(); }
  std::uint64_t schedule(Duration d, sim::Callback fn) override {
    return sim_.schedule_after(d, std::move(fn)).value;
  }
  void cancel(std::uint64_t t) override { sim_.cancel(sim::TimerId{t}); }
  RandomEngine& rng() override { return rng_; }
  const std::vector<MemberId>& region_members() const override {
    return members_;
  }
  MemberId self() const override { return 0; }
  sim::Simulator& sim() { return sim_; }

 private:
  mutable sim::Simulator sim_;
  RandomEngine rng_;
  std::vector<MemberId> members_;
};

void BM_TwoPhaseStoreDiscard(benchmark::State& state) {
  BenchEnv env;
  buffer::BufferStore store(
      std::make_unique<buffer::TwoPhasePolicy>(buffer::TwoPhaseParams{}));
  store.bind(&env);
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload(256, 1);
  for (auto _ : state) {
    MessageId id{1, ++seq};
    store.store(proto::Data{id, payload});
    store.force_discard(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoPhaseStoreDiscard);

void BM_RendezvousHash(benchmark::State& state) {
  std::vector<MemberId> members(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i] = static_cast<MemberId>(i);
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto set = buffer::hash_bufferers(MessageId{1, ++seq}, members, 6);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RendezvousHash)->Arg(100)->Arg(1000);

void BM_RendezvousHashReusedSelector(benchmark::State& state) {
  // The hot-path form: scratch buffers persist across messages.
  std::vector<MemberId> members(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i] = static_cast<MemberId>(i);
  }
  buffer::BuffererSelector selector;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const auto& set = selector.select(MessageId{1, ++seq}, members, 6);
    benchmark::DoNotOptimize(set.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RendezvousHashReusedSelector)->Arg(100)->Arg(1000);

void BM_RendezvousMembershipTest(benchmark::State& state) {
  // HashBasedPolicy::on_stored's "should I buffer?" test (no set built).
  std::vector<MemberId> members(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i] = static_cast<MemberId>(i);
  }
  buffer::BuffererSelector selector;
  std::uint64_t seq = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += selector.selects(MessageId{1, ++seq}, members, 6, 3) ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RendezvousMembershipTest)->Arg(100)->Arg(1000);

void BM_ViewPickRandom(benchmark::State& state) {
  std::vector<MemberId> ms(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < ms.size(); ++i) ms[i] = static_cast<MemberId>(i);
  membership::RegionView view(ms);
  RandomEngine rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.pick_random(rng, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViewPickRandom)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();

// Microbenchmarks: BufferStore insert / lookup / eviction and DigestTable
// refresh ns-per-op (google-benchmark). The store is the per-member hot path
// of every experiment — each received message is admitted once, each repair
// request is a lookup, and under a budget every admission may run the
// eviction protocol, which under coordination ranks every entry against the
// neighbors' digests.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "buffer/buffer_everything.h"
#include "buffer/coordination.h"
#include "buffer/fixed_time.h"
#include "buffer/store.h"
#include "common/random.h"
#include "proto/codec.h"
#include "sim/simulator.h"

namespace {

using namespace rrmp;

/// Minimal PolicyEnv over a private simulator (mirrors the endpoint's).
class BenchEnv final : public buffer::PolicyEnv {
 public:
  TimePoint now() const override { return sim_.now(); }
  std::uint64_t schedule(Duration d, sim::Callback fn) override {
    return sim_.schedule_after(d, std::move(fn)).value;
  }
  void cancel(std::uint64_t timer) override {
    sim_.cancel(sim::TimerId{timer});
  }
  RandomEngine& rng() override { return rng_; }
  const std::vector<MemberId>& region_members() const override {
    return members_;
  }
  MemberId self() const override { return 0; }

 private:
  mutable sim::Simulator sim_;
  RandomEngine rng_{1};
  std::vector<MemberId> members_ = {0, 1, 2, 3, 4, 5, 6, 7};
};

proto::Data data_of(std::uint64_t seq, const std::vector<std::uint8_t>& p) {
  return proto::Data{MessageId{1, seq}, p};
}

/// A byte budget that holds exactly `frames` frames of `payload`.
buffer::BufferBudget frame_budget(std::int64_t frames,
                                  const std::vector<std::uint8_t>& payload) {
  return buffer::BufferBudget{static_cast<std::size_t>(frames) *
                              proto::encoded_size(data_of(1, payload))};
}

void BM_StoreInsertErase(benchmark::State& state) {
  // Insert + erase one id with the store held at `range` resident entries:
  // the flat storage's shift cost at realistic occupancies.
  BenchEnv env;
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>());
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t q = 1; q <= n; ++q) store.store(data_of(q * 2, payload));
  std::uint64_t probe = 1;  // odd seqs interleave with the resident evens
  for (auto _ : state) {
    store.store(data_of(probe, payload));
    store.force_discard(MessageId{1, probe});
    probe = (probe + 2) % (2 * n) | 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreInsertErase)->Arg(16)->Arg(256)->Arg(4096);

void BM_StoreLookupHit(benchmark::State& state) {
  BenchEnv env;
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>());
  store.bind(&env);
  std::vector<std::uint8_t> payload(256, 1);
  auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t q = 1; q <= n; ++q) store.store(data_of(q, payload));
  std::uint64_t probe = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    probe = probe % n + 1;
    auto d = store.get(MessageId{1, probe});
    hits += d.has_value();
    benchmark::DoNotOptimize(d);
  }
  if (hits == 0) state.SkipWithError("lookups missed");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreLookupHit)->Arg(16)->Arg(256)->Arg(4096);

void BM_StoreAdmitEvictSteadyState(benchmark::State& state) {
  // Fully budgeted admission: every insert runs the eviction protocol (the
  // store's victim scan + discard of the LRU victim) at `range` frames of
  // occupancy.
  BenchEnv env;
  std::vector<std::uint8_t> payload(256, 1);
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>(),
                            frame_budget(state.range(0), payload));
  store.bind(&env);
  std::uint64_t seq = 0;
  // Pre-fill to the cap so every measured insert evicts (google-benchmark's
  // 1-iteration calibration run would otherwise never reach the budget).
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    store.store(data_of(++seq, payload));
  }
  for (auto _ : state) {
    store.store(data_of(++seq, payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAdmitEvictSteadyState)->Arg(16)->Arg(256);

void BM_StoreAdmitEvictWithTimers(benchmark::State& state) {
  // Same, with a timer-arming policy: eviction must also cancel the
  // victim's pending TTL timer (the slab-handle path).
  BenchEnv env;
  std::vector<std::uint8_t> payload(256, 1);
  buffer::BufferStore store(
      std::make_unique<buffer::FixedTimePolicy>(Duration::seconds(3600)),
      frame_budget(state.range(0), payload));
  store.bind(&env);
  std::uint64_t seq = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    store.store(data_of(++seq, payload));
  }
  for (auto _ : state) {
    store.store(data_of(++seq, payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAdmitEvictWithTimers)->Arg(16)->Arg(256);

void BM_DigestTableUpdate(benchmark::State& state) {
  // One neighbor's BufferDigest folded into the table: the per-frame cost
  // of the coordination gossip. `range` peers (99: a 100-member region)
  // each advertise five ranges and are refreshed round-robin. Each peer's
  // runs are built once, as a received digest carries them.
  auto peers = static_cast<MemberId>(state.range(0));
  std::vector<SharedArray<proto::DigestRange>> rows;
  for (MemberId p = 0; p < peers; ++p) {
    std::vector<proto::DigestRange> runs;
    for (std::uint64_t r = 0; r < 5; ++r) runs.push_back({1, p + 8 * r, 4});
    rows.emplace_back(std::move(runs));
  }
  buffer::DigestTable table;
  for (MemberId p = 0; p < peers; ++p) table.update(p + 1, 1024, rows[p]);
  MemberId next = 0;
  for (auto _ : state) {
    table.update(next + 1, 1024 + next, rows[next]);
    benchmark::DoNotOptimize(table);
    benchmark::ClobberMemory();
    next = (next + 1) % peers;
  }
  if (table.peer_count() != peers) state.SkipWithError("rows lost");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DigestTableUpdate)->Arg(99);

void BM_StoreAdmitEvictCoordinated(benchmark::State& state) {
  // Budgeted admission with coordination on: every insert ranks the whole
  // store against 99 neighbors' digests (replica counts and keeper
  // elections) before evicting one victim, at `range` occupancy. Frames
  // cycle over five sources; each neighbor advertises one open-ended run
  // per source for most sources, starting a few frames in, so the
  // neighbors' windows overlap and every stored id has many holders.
  constexpr MemberId kSources = 5;
  constexpr MemberId kPeers = 99;
  BenchEnv env;
  buffer::CoordinationParams coordination;
  coordination.enabled = true;
  std::vector<std::uint8_t> payload(256, 1);
  buffer::BufferStore store(std::make_unique<buffer::BufferEverythingPolicy>(),
                            frame_budget(state.range(0), payload),
                            coordination);
  store.bind(&env);
  for (MemberId p = 1; p <= kPeers; ++p) {
    std::vector<proto::DigestRange> ranges;
    for (MemberId s = 1; s <= kSources; ++s) {
      if ((p + s) % 4 == 0) continue;
      ranges.push_back({s, 1 + p % 8, std::uint64_t{1} << 62});
    }
    store.digests().update(p, 1024, ranges);
  }
  std::uint64_t seq = 0;
  auto next = [&] {
    ++seq;
    return proto::Data{MessageId{static_cast<MemberId>(seq % kSources + 1), seq},
                       payload};
  };
  for (std::int64_t i = 0; i < state.range(0); ++i) store.store(next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.store(next()));
  }
  if (store.stats().evicted == 0) state.SkipWithError("nothing evicted");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAdmitEvictCoordinated)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();

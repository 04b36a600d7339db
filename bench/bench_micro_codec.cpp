// Microbenchmarks: wire codec throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include "proto/codec.h"

namespace {

using namespace rrmp;

proto::Message make_data(std::size_t payload) {
  return proto::Data{MessageId{7, 42},
                     std::vector<std::uint8_t>(payload, 0x5A)};
}

void BM_EncodeData(benchmark::State& state) {
  proto::Message m = make_data(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto buf = proto::encode(m);
    bytes += buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeData)->Arg(64)->Arg(1024)->Arg(8192);

void BM_DecodeData(benchmark::State& state) {
  auto buf = proto::encode(make_data(static_cast<std::size_t>(state.range(0))));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto m = proto::decode(buf);
    bytes += buf.size();
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DecodeData)->Arg(64)->Arg(1024)->Arg(8192);

void BM_EncodeHistory(benchmark::State& state) {
  proto::History h;
  h.member = 3;
  proto::SourceHistory sh;
  sh.source = 0;
  sh.next_expected = 1000;
  sh.bitmap.assign(static_cast<std::size_t>(state.range(0)), ~0ULL);
  h.sources.push_back(sh);
  proto::Message m{h};
  for (auto _ : state) {
    auto buf = proto::encode(m);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_EncodeHistory)->Arg(1)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

// Unit tests: discrete-event simulator ordering, timers, determinism, the
// slab timer store's generation-tagged handles, and sim::Callback's
// small-buffer optimization (including allocation-count assertions that
// schedule/fire is heap-free for inline captures, and that a two-phase
// buffer store's entry timers stay off the heap end to end), and the
// allocations an Endpoint makes for the engines it does not run.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "buffer/store.h"
#include "buffer/two_phase.h"
#include "rrmp/endpoint.h"
#include "sim/simulator.h"
#include "test_env.h"

// Global allocation counter: counts every operator-new in this test binary
// so AllocationFree* tests can assert the schedule/fire path stays off the
// heap. Counting is unconditional and thread-safe; the overhead is
// irrelevant for a unit-test binary. While an AllocLog is open, the size of
// each allocation is recorded too (single-threaded use only).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_log_open{false};
std::array<std::size_t, 4096> g_log_sizes;
std::size_t g_log_len = 0;

void* counted_alloc(std::size_t n) {
  ++g_alloc_count;
  if (g_log_open && g_log_len < g_log_sizes.size()) {
    g_log_sizes[g_log_len++] = n;
  }
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

/// Records the size of every allocation from construction until take().
class AllocLog {
 public:
  AllocLog() {
    g_log_len = 0;
    g_log_open = true;
  }
  ~AllocLog() { g_log_open = false; }
  AllocLog(const AllocLog&) = delete;
  AllocLog& operator=(const AllocLog&) = delete;

  std::vector<std::size_t> take() {
    g_log_open = false;  // the copy below must not log itself
    EXPECT_LT(g_log_len, g_log_sizes.size()) << "allocation log overflowed";
    return {g_log_sizes.begin(),
            g_log_sizes.begin() + static_cast<std::ptrdiff_t>(g_log_len)};
  }
};
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rrmp::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_us(30), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_us(10), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_us(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::from_us(30));
}

TEST(SimulatorTest, SimultaneousEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint::from_us(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesMonotonically) {
  Simulator sim;
  TimePoint last = TimePoint::zero();
  bool monotone = true;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(TimePoint::from_us((i * 37) % 100), [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint fired;
  sim.schedule_at(TimePoint::from_us(100), [&] {
    sim.schedule_after(Duration::micros(50), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, TimePoint::from_us(150));
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  TimerId id = sim.schedule_after(Duration::micros(10), [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  TimerId id = sim.schedule_after(Duration::micros(1), [] {});
  sim.run();
  sim.cancel(id);  // already fired: no-op
  sim.cancel(id);
  sim.cancel(TimerId{999999});  // never existed: no-op
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorTest, CancelFromInsideCallback) {
  Simulator sim;
  bool second_fired = false;
  TimerId second =
      sim.schedule_at(TimePoint::from_us(20), [&] { second_fired = true; });
  sim.schedule_at(TimePoint::from_us(10), [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(TimePoint::from_us(10), [&] { fired.push_back(10); });
  sim.schedule_at(TimePoint::from_us(20), [&] { fired.push_back(20); });
  sim.schedule_at(TimePoint::from_us(30), [&] { fired.push_back(30); });
  sim.run_until(TimePoint::from_us(20));
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), TimePoint::from_us(20));
  sim.run_until(TimePoint::from_us(100));
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(sim.now(), TimePoint::from_us(100));
}

TEST(SimulatorTest, RunUntilSkipsCancelledHeadEntries) {
  Simulator sim;
  // A cancelled event far in the future must not block run_until's scan.
  TimerId id = sim.schedule_at(TimePoint::from_us(5), [] {});
  sim.cancel(id);
  bool fired = false;
  sim.schedule_at(TimePoint::from_us(10), [&] { fired = true; });
  sim.run_until(TimePoint::from_us(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, SchedulingInThePastClampsToNow) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_us(100), [] {});
  sim.run();
  TimePoint fired_at;
  sim.schedule_at(TimePoint::from_us(10), [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, TimePoint::from_us(100));  // clamped, clock monotone
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_after(Duration::micros(1), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RunHonorsMaxEvents) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::micros(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.run(), 6u);
}

TEST(SimulatorTest, CallbackCanScheduleMoreWork) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(Duration::micros(1), chain);
  };
  sim.schedule_after(Duration::micros(1), chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.fired_count(), 100u);
}

TEST(SimulatorTest, PendingCountTracksLiveEvents) {
  Simulator sim;
  TimerId a = sim.schedule_after(Duration::micros(1), [] {});
  sim.schedule_after(Duration::micros(2), [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

// ------------------------------------------------- slab handle safety ----

TEST(SlabHandleTest, HandleFromReusedSlotDoesNotCancelNewTimer) {
  Simulator sim;
  // Fire `a`, freeing its slot; the next schedule reuses that slot with a
  // bumped generation, so the stale handle must be inert against it.
  TimerId a = sim.schedule_after(Duration::micros(1), [] {});
  sim.run();
  bool fired = false;
  TimerId b = sim.schedule_after(Duration::micros(1), [&] { fired = true; });
  EXPECT_NE(a.value, b.value);  // same slot, different generation
  sim.cancel(a);                // stale: must not kill b
  EXPECT_TRUE(sim.pending(b));
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SlabHandleTest, CancelledSlotReuseKeepsHandlesDistinct) {
  Simulator sim;
  TimerId a = sim.schedule_after(Duration::micros(10), [] {});
  sim.cancel(a);
  bool fired = false;
  TimerId b = sim.schedule_after(Duration::micros(10), [&] { fired = true; });
  EXPECT_FALSE(sim.pending(a));
  EXPECT_TRUE(sim.pending(b));
  sim.cancel(a);  // double-cancel of a stale handle over a reused slot
  EXPECT_TRUE(sim.pending(b));
  sim.run();
  EXPECT_TRUE(fired);
  sim.cancel(b);  // cancel-after-fire
  EXPECT_FALSE(sim.pending(b));
}

TEST(SlabHandleTest, CancelFloodCompactsHeap) {
  // Schedule-and-cancel far more events than ever fire: the lazy heap must
  // not accumulate dead entries without bound (the pre-slab design kept
  // them until popped). pending_count() stays exact throughout.
  Simulator sim;
  sim.schedule_after(Duration::seconds(100), [] {});
  for (int round = 0; round < 1000; ++round) {
    std::vector<TimerId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sim.schedule_after(Duration::seconds(1 + i), [] {}));
    }
    for (TimerId id : ids) sim.cancel(id);
    EXPECT_EQ(sim.pending_count(), 1u);
  }
  EXPECT_EQ(sim.run(), 1u);  // only the long-lived event ever fires
}

TEST(SlabHandleTest, OrderingUnchangedAcrossCancelCompaction) {
  // Compaction rebuilds the heap; (time, seq) FIFO order must survive.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(TimePoint::from_us(100 + i % 5), [&order, i] {
      order.push_back(i);
    });
    // Interleave cancelled noise to force dead-entry buildup + compaction.
    std::vector<TimerId> noise;
    for (int j = 0; j < 10; ++j) {
      noise.push_back(sim.schedule_at(TimePoint::from_us(50), [] {}));
    }
    for (TimerId id : noise) sim.cancel(id);
  }
  sim.run();
  // Same fire time bucket => FIFO by insertion; buckets ordered by time.
  std::vector<int> expected;
  for (int t = 0; t < 5; ++t) {
    for (int i = 0; i < 50; ++i) {
      if (i % 5 == t) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

// ------------------------------------------------------- sim::Callback ----

TEST(CallbackTest, SmallCapturesAreInline) {
  int x = 0;
  Callback small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(x, 1);

  struct {  // exactly at the 48-byte boundary
    void* a;
    std::uint64_t b[5];
  } cap{&x, {1, 2, 3, 4, 5}};
  static_assert(sizeof(cap) == Callback::kInlineCapacity);
  Callback boundary([cap] { ++*static_cast<int*>(cap.a); });
  EXPECT_TRUE(boundary.is_inline());
  boundary();
  EXPECT_EQ(x, 2);
}

TEST(CallbackTest, OversizedCapturesFallBackToHeap) {
  int x = 0;
  std::uint64_t big[7] = {1, 2, 3, 4, 5, 6, 7};  // 56 bytes of capture
  Callback cb([&x, big] { x += static_cast<int>(big[6]); });
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(x, 7);
}

TEST(CallbackTest, MoveTransfersStateBothPaths) {
  // Inline: state is relocated into the destination buffer.
  int n = 0;
  Callback a([&n] { ++n; });
  Callback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(b.is_inline());
  b();
  EXPECT_EQ(n, 1);

  // Heap: the pointer is stolen, so captured state keeps its address.
  auto token = std::make_shared<int>(5);
  std::uint64_t pad[6] = {};
  Callback c([token, pad, &n] { n += *token + static_cast<int>(pad[0]); });
  EXPECT_FALSE(c.is_inline());
  EXPECT_EQ(token.use_count(), 2);
  Callback d = std::move(c);
  EXPECT_EQ(token.use_count(), 2);  // moved, not copied
  d();
  EXPECT_EQ(n, 6);
  d = nullptr;  // destroys the capture
  EXPECT_EQ(token.use_count(), 1);
}

TEST(CallbackTest, MoveAssignmentReleasesPreviousTarget) {
  auto old_state = std::make_shared<int>(1);
  Callback target([old_state] { (void)*old_state; });
  EXPECT_EQ(old_state.use_count(), 2);
  int hits = 0;
  target = Callback([&hits] { ++hits; });
  EXPECT_EQ(old_state.use_count(), 1);  // previous capture destroyed
  target();
  EXPECT_EQ(hits, 1);
}

TEST(CallbackTest, InvokingEmptyCallbackThrowsLikeStdFunction) {
  Callback empty;
  EXPECT_THROW(empty(), std::bad_function_call);
  Callback moved_from([] {});
  Callback taken = std::move(moved_from);
  EXPECT_THROW(moved_from(), std::bad_function_call);
  taken();  // the moved-to callable still works
}

TEST(CallbackTest, WrapsStdFunctionInline) {
  // std::function (32 bytes) fits the inline buffer: adapting legacy
  // std::function-based callers adds no wrapper allocation.
  int x = 0;
  std::function<void()> fn = [&x] { ++x; };
  Callback cb(std::move(fn));
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(x, 1);
}

// ----------------------------------------------- allocation-free paths ----

TEST(AllocationFreeTest, ScheduleFireCancelOfInlineCapturesIsHeapFree) {
  Simulator sim;
  // Warm-up: size the slab and heap vectors (64 concurrent timers), then
  // reuse them.
  std::vector<TimerId> warm;
  for (int i = 0; i < 64; ++i) {
    warm.push_back(sim.schedule_after(Duration::micros(i), [] {}));
  }
  for (TimerId id : warm) sim.cancel(id);
  sim.run();

  struct {
    void* self;
    std::uint64_t id[4];
  } cap{&sim, {1, 2, 3, 4}};  // 40 bytes: typical `this` + MessageId capture
  std::uint64_t fired = 0;

  std::uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 100; ++round) {
    TimerId keep =
        sim.schedule_after(Duration::micros(1), [cap, &fired] {
          ++fired;
          (void)cap;
        });
    TimerId victim = sim.schedule_after(Duration::micros(2), [cap, &fired] {
      ++fired;
      (void)cap;
    });
    sim.cancel(victim);
    sim.run();
    (void)keep;
  }
  std::uint64_t allocs = g_alloc_count.load() - before;
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(allocs, 0u) << "schedule/fire/cancel must not allocate for "
                           "captures <= Callback::kInlineCapacity bytes";
}

TEST(AllocationFreeTest, TwoPhaseEntryTimersAreHeapFree) {
  // Every stored entry arms an idle check and every promoted one a TTL
  // check: the protocol's most common timers. They travel as a Callback
  // from the policy through the store and PolicyEnv into the slab.
  rrmp::testing::FakePolicyEnv env;
  buffer::BufferStore store(std::make_unique<buffer::TwoPhasePolicy>(
      buffer::TwoPhaseParams{Duration::millis(40), 6.0, Duration::millis(30)}));
  store.bind(&env);
  proto::Data msg = rrmp::testing::make_data(1, 0);
  auto round = [&] {
    for (int i = 0; i < 16; ++i) {
      ++msg.id.seq;
      store.store(msg);
    }
    env.advance(Duration::millis(50));
  };
  for (int i = 0; i < 4; ++i) round();  // warm-up: size entries, slab, heap

  std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 100; ++i) round();
  std::uint64_t allocs = g_alloc_count.load() - before;
  EXPECT_EQ(store.stats().stored, 104u * 16u);
  EXPECT_GT(store.stats().promoted_long_term, 0u);
  EXPECT_EQ(allocs, 0u) << "arming, firing and cancelling entry timers "
                           "must not allocate";
}

// ------------------------------------------- endpoint allocation diet ----

// A one-region host whose sends go nowhere: the endpoint's own allocations
// are the only ones an AllocLog sees.
class QuietHost final : public IHost {
 public:
  explicit QuietHost(std::vector<MemberId> region)
      : view_(std::move(region)), rng_(1) {}

  MemberId self() const override { return 0; }
  RegionId region() const override { return 0; }
  TimePoint now() const override { return sim_.now(); }
  TimerHandle schedule(Duration d, Callback fn) override {
    return sim_.schedule_after(d, std::move(fn)).value;
  }
  void cancel(TimerHandle t) override { sim_.cancel(TimerId{t}); }
  void send(MemberId, proto::Message) override {}
  void multicast_region(proto::Message) override {}
  void ip_multicast(proto::Message) override {}
  RandomEngine& rng() override { return rng_; }
  const membership::RegionView& local_view() const override { return view_; }
  const membership::RegionView& parent_view() const override {
    return parent_;
  }
  Duration rtt_estimate(MemberId) const override {
    return Duration::millis(10);
  }

  void advance(Duration d) { sim_.run_until(sim_.now() + d); }

 private:
  Simulator sim_;
  membership::RegionView view_;
  membership::RegionView parent_;
  RandomEngine rng_;
};

std::unique_ptr<buffer::TwoPhasePolicy> two_phase() {
  return std::make_unique<buffer::TwoPhasePolicy>(
      buffer::TwoPhaseParams{Duration::millis(40), 6.0, Duration::millis(30)});
}

TEST(EndpointAllocationTest, EnginesOffAllocateOnlyTheBufferStore) {
  // Flow control and coordination off under the two-phase policy: no
  // engine block, no send window, no task table — the store is all.
  QuietHost host({0, 1, 2, 3});
  RecordingSink metrics;
  auto policy = two_phase();
  Config cfg;
  AllocLog log;
  Endpoint ep(host, cfg, std::move(policy), metrics);
  std::vector<std::size_t> sizes = log.take();
  EXPECT_EQ(sizes, std::vector<std::size_t>{sizeof(buffer::BufferStore)});
}

TEST(EndpointAllocationTest, FlowOffMulticastKeepsNoWindowStorage) {
  QuietHost host({0, 1, 2, 3});
  RecordingSink metrics;
  Endpoint ep(host, Config{}, two_phase(), metrics);
  std::vector<std::vector<std::uint8_t>> payloads(80);
  for (auto& p : payloads) p.assign(16, 0x5A);
  // Warm-up: the tracker, the store's entry vector and the timer slab
  // reach their steady-state size; the two-phase policy discards each
  // frame a send or two later.
  for (std::size_t i = 0; i < 16; ++i) {
    ep.multicast(std::move(payloads[i]));
    host.advance(Duration::millis(50));
  }
  AllocLog log;
  for (std::size_t i = 16; i < payloads.size(); ++i) {
    ep.multicast(std::move(payloads[i]));
    host.advance(Duration::millis(50));
  }
  std::vector<std::size_t> sizes = log.take();
  EXPECT_EQ(ep.highest_sent(), payloads.size());
  EXPECT_EQ(ep.queued_sends(), 0u);
  // The send window holds proto::Data frames, so any storage it takes is a
  // whole number of frames. What a flow-off send does allocate is its
  // payload's shared buffer and the delivery record.
  for (std::size_t n : sizes) {
    EXPECT_NE(n % sizeof(proto::Data), 0u) << "a " << n << "-byte allocation";
  }
  EXPECT_FALSE(sizes.empty());
}

TEST(EndpointAllocationTest, FirstRecoveryAllocatesAFourSlotTable) {
  QuietHost host({0, 1, 2, 3});
  RecordingSink metrics;
  Endpoint ep(host, Config{}, two_phase(), metrics);
  AllocLog log;
  // Member 1's frame 2 arrives first: frame 1 is a loss to recover.
  ep.handle_message(proto::Message{rrmp::testing::make_data(1, 2)}, 1);
  std::vector<std::size_t> sizes = log.take();
  ASSERT_EQ(ep.active_recoveries(), 1u);
  // A FlatMap table of n slots is one allocation of n slots followed by an
  // n-byte state array, and each slot holds at least its MessageId key.
  std::vector<std::size_t> tables;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    std::size_t slots = sizes[i + 1];
    if (slots != 0 && sizes[i] % slots == 0 &&
        sizes[i] / slots >= sizeof(MessageId)) {
      tables.push_back(slots);
    }
  }
  EXPECT_EQ(tables, std::vector<std::size_t>{4});
}

}  // namespace
}  // namespace rrmp::sim

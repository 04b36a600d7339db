// Unit tests: strong time types, deterministic RNG, byte codec primitives,
// the open-addressing FlatMap.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <type_traits>
#include <unordered_map>

#include "common/bytes.h"
#include "common/flat_map.h"
#include "common/random.h"
#include "common/time.h"
#include "common/types.h"

namespace rrmp {
namespace {

// ---------------------------------------------------------------- time ----

TEST(DurationTest, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::millis(1).us(), 1000);
  EXPECT_EQ(Duration::seconds(1).us(), 1000000);
  EXPECT_EQ(Duration::micros(5).us(), 5);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).sec(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::micros(2500).ms(), 2.5);
}

TEST(DurationTest, Arithmetic) {
  Duration a = Duration::millis(10);
  Duration b = Duration::millis(4);
  EXPECT_EQ((a + b).us(), 14000);
  EXPECT_EQ((a - b).us(), 6000);
  EXPECT_EQ((a * 3).us(), 30000);
  EXPECT_EQ((3 * a).us(), 30000);
  EXPECT_EQ((a / 2).us(), 5000);
  a += b;
  EXPECT_EQ(a.us(), 14000);
  a -= b;
  EXPECT_EQ(a.us(), 10000);
}

TEST(DurationTest, ScaledByRealFactor) {
  EXPECT_EQ(Duration::millis(10).scaled(1.5).us(), 15000);
  EXPECT_EQ(Duration::millis(10).scaled(0.0).us(), 0);
}

TEST(DurationTest, Ordering) {
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
  EXPECT_GE(Duration::zero(), Duration::micros(0));
  EXPECT_TRUE(Duration::infinite().is_infinite());
  EXPECT_FALSE(Duration::seconds(100000).is_infinite());
}

TEST(TimePointTest, ArithmeticAndOrdering) {
  TimePoint t0 = TimePoint::zero();
  TimePoint t1 = t0 + Duration::millis(5);
  EXPECT_EQ((t1 - t0).us(), 5000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - Duration::millis(5)), t0);
}

TEST(TimePointTest, AddingToMaxSaturates) {
  TimePoint never = TimePoint::max();
  EXPECT_EQ(never + Duration::seconds(10), TimePoint::max());
  EXPECT_EQ(TimePoint::zero() + Duration::infinite(), TimePoint::max());
}

// ------------------------------------------------------------- MessageId ----

TEST(MessageIdTest, OrderingAndEquality) {
  MessageId a{1, 5};
  MessageId b{1, 6};
  MessageId c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);  // source dominates
  EXPECT_EQ(a, (MessageId{1, 5}));
  EXPECT_NE(a, b);
}

TEST(MessageIdTest, HashSpreads) {
  std::set<std::size_t> hashes;
  std::hash<MessageId> h;
  for (std::uint32_t s = 0; s < 10; ++s) {
    for (std::uint64_t q = 0; q < 100; ++q) {
      hashes.insert(h(MessageId{s, q}));
    }
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on this tiny set
}

// ---------------------------------------------------------------- random ----

TEST(RandomTest, DeterministicForSeed) {
  RandomEngine a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  RandomEngine a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, ForkIsDeterministicAndIndependent) {
  RandomEngine a(42), b(42);
  RandomEngine fa = a.fork(7);
  RandomEngine fb = b.fork(7);
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
  RandomEngine f8 = a.fork(8);
  EXPECT_NE(a.fork(7).next_u64(), f8.next_u64());
}

// The shard pool leans on fork for per-region streams: forking must
// not consume parent state, or the draw sequence of a region would depend on
// how many sibling regions were set up before it.
TEST(RandomTest, ForkDoesNotConsumeParentState) {
  RandomEngine a(99), b(99);
  (void)a.fork(1);
  (void)a.fork(2);
  (void)a.fork(3);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RandomTest, ForkStreamsDoNotOverlap) {
  // Distinct streams must not replay each other's output: compare windows of
  // two sibling forks for shared values (a shifted-overlap would show up as
  // a non-empty intersection).
  RandomEngine parent(7);
  RandomEngine s0 = parent.fork(0);
  RandomEngine s1 = parent.fork(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4096; ++i) seen.insert(s0.next_u64());
  int collisions = 0;
  for (int i = 0; i < 4096; ++i) {
    if (seen.count(s1.next_u64())) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(RandomTest, ForkChildDiffersFromParentStream) {
  RandomEngine parent(7);
  RandomEngine child = parent.fork(0);
  int same = 0;
  for (int i = 0; i < 256; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, SplitmixKnownAnswerVectors) {
  // Reference sequence for state 0 (Vigna's splitmix64 test vector) pins the
  // seed-derivation primitive: silently changing it would invalidate every
  // recorded experiment seed.
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64(s), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(s), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(s), 0x06c45d188009454fULL);
  s = 42;
  EXPECT_EQ(splitmix64(s), 0xbdd732262feb6e95ULL);
}

TEST(RandomTest, UniformIntStaysInRangeAndCoversIt) {
  RandomEngine rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.uniform_int(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RandomTest, BernoulliMatchesProbability) {
  // 100k trials per rate put the Monte Carlo error well inside ±1%.
  RandomEngine rng(4);
  const int n = 100000;
  for (double p : {0.01, 0.05, 0.10, 0.25, 0.30, 0.50, 0.90}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      if (rng.bernoulli(p)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01) << "p = " << p;
  }
}

TEST(RandomTest, BernoulliEdgeCases) {
  RandomEngine rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(RandomTest, SampleIndicesDistinctAndInRange) {
  RandomEngine rng(7);
  for (std::size_t n : {10u, 100u, 1000u}) {
    for (std::size_t k : {0u, 1u, 5u, 10u}) {
      auto idx = rng.sample_indices(n, k);
      ASSERT_EQ(idx.size(), std::min(n, k));
      std::set<std::size_t> s(idx.begin(), idx.end());
      EXPECT_EQ(s.size(), idx.size());  // distinct
      for (std::size_t v : idx) EXPECT_LT(v, n);
    }
  }
}

TEST(RandomTest, SampleIndicesKGreaterThanNReturnsAll) {
  RandomEngine rng(8);
  auto idx = rng.sample_indices(4, 10);
  EXPECT_EQ(idx.size(), 4u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s, (std::set<std::size_t>{0, 1, 2, 3}));
}

TEST(RandomTest, SampleIndicesIsUniformish) {
  RandomEngine rng(9);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t v : rng.sample_indices(10, 3)) ++counts[v];
  }
  // Each index expected in 30% of draws.
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(RandomTest, ShufflePreservesElements) {
  RandomEngine rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ----------------------------------------------------------------- bytes ----

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, VarintRoundTripAcrossMagnitudes) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
        0xFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL}) {
    ByteWriter w;
    w.put_varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.get_varint(), v) << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(BytesTest, VarintEncodingIsCompact) {
  ByteWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.put_varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(BytesTest, BlobRoundTrip) {
  ByteWriter w;
  std::vector<std::uint8_t> blob = {0, 1, 2, 255, 254};
  w.put_bytes(blob);
  w.put_bytes({});
  ByteReader r(w.data());
  EXPECT_EQ(r.get_shared_bytes(), SharedBytes(blob));
  EXPECT_TRUE(r.get_shared_bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, TruncatedReadFailsAndStaysFailed) {
  ByteWriter w;
  w.put_u32(7);
  std::vector<std::uint8_t> data = w.take();
  data.resize(2);  // truncate mid-field
  ByteReader r(data);
  (void)r.get_u32();
  EXPECT_FALSE(r.ok());
  // Subsequent reads return zero values without touching memory.
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_TRUE(r.get_shared_bytes().empty());
  EXPECT_FALSE(r.done());
}

TEST(BytesTest, HostileLengthPrefixDoesNotOverread) {
  ByteWriter w;
  w.put_varint(1'000'000);  // claims a 1MB blob
  w.put_u8(1);              // but provides 1 byte
  ByteReader r(w.data());  // a span reader: get_shared_bytes copies
  SharedBytes blob = r.get_shared_bytes();
  EXPECT_TRUE(blob.empty());
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, OverlongVarintRejected) {
  std::vector<std::uint8_t> evil(11, 0x80);  // 11 continuation bytes
  ByteReader r(evil);
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, EmptyReaderIsDone) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  (void)r.get_u8();
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------------ binomial ----

TEST(RandomTest, BinomialKnownAnswerVectorsInversionRegime) {
  // n·p = 6 < 30: BINV inversion path. Pins the exact draw sequence so
  // Monte Carlo drivers (fig3/fig4) replay bit-identically across refactors.
  RandomEngine rng(42);
  const std::uint64_t expected[] = {3, 11, 11, 4, 7, 7, 5, 6};
  for (std::uint64_t e : expected) EXPECT_EQ(rng.binomial(100, 0.06), e);
}

TEST(RandomTest, BinomialKnownAnswerVectorsCountRegime) {
  // n·p = 40 >= 30: n Bernoulli(p) trials counted one by one.
  RandomEngine rng(42);
  const std::uint64_t expected[] = {44, 47, 38, 46, 42, 28, 47, 37};
  for (std::uint64_t e : expected) EXPECT_EQ(rng.binomial(100, 0.4), e);
}

TEST(RandomTest, BinomialEdgeCases) {
  RandomEngine rng(1);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(100, -3.0), 0u);  // clamped
  EXPECT_EQ(rng.binomial(100, 7.0), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_LE(rng.binomial(10, 0.5), 10u);
}

TEST(RandomTest, BinomialMomentsMatchAcrossRegimes) {
  // 100k-trial mean/variance checks in every algorithmic regime: inversion,
  // the Bernoulli count, and the flipped variants of both.
  struct Case {
    std::uint64_t n;
    double p;
  };
  for (Case c : {Case{100, 0.06}, Case{100, 0.97}, Case{100, 0.4},
                 Case{100, 0.7}}) {
    RandomEngine rng(0xB10'0000 + c.n);
    const int kTrials = 100000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < kTrials; ++i) {
      auto k = static_cast<double>(rng.binomial(c.n, c.p));
      sum += k;
      sum_sq += k * k;
    }
    double mean = sum / kTrials;
    double var = sum_sq / kTrials - mean * mean;
    double want_mean = static_cast<double>(c.n) * c.p;
    double want_var = want_mean * (1.0 - c.p);
    double sd = std::sqrt(want_var);
    // Mean within 5 standard errors; variance within 10%.
    EXPECT_NEAR(mean, want_mean, 5.0 * sd / std::sqrt(double(kTrials)))
        << "n=" << c.n << " p=" << c.p;
    EXPECT_NEAR(var, want_var, 0.10 * want_var) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(RandomTest, BinomialMatchesBernoulliSumDistribution) {
  // Coarse PMF cross-check against the definition: P(k=0) for n=100,
  // p=C/n is ~e^-C (the paper's Figure 4 quantity).
  RandomEngine rng(99);
  const int kTrials = 200000;
  int none = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.binomial(100, 0.03) == 0) ++none;
  }
  double p_none = static_cast<double>(none) / kTrials;
  EXPECT_NEAR(p_none, std::pow(1.0 - 0.03, 100.0), 0.005);
}

// --------------------------------------------------------- SharedBytes ----

TEST(SharedBytesTest, OwnsMovedVectorWithoutCopy) {
  std::vector<std::uint8_t> v = {1, 2, 3, 4};
  const std::uint8_t* raw = v.data();
  SharedBytes b(std::move(v));
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data(), raw);  // took ownership, no copy
}

TEST(SharedBytesTest, CopiesShareOneOwner) {
  SharedBytes a({10, 20, 30});
  SharedBytes b = a;
  SharedBytes c = b;
  EXPECT_TRUE(a.shares_owner_with(b));
  EXPECT_TRUE(a.shares_owner_with(c));
  EXPECT_EQ(a.data(), c.data());
  EXPECT_EQ(a, c);
}

TEST(SharedBytesTest, SliceAliasesOwnerAndSurvivesIt) {
  SharedBytes whole({1, 2, 3, 4, 5, 6});
  SharedBytes mid = whole.slice(2, 3);
  EXPECT_TRUE(mid.shares_owner_with(whole));
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.data(), whole.data() + 2);
  // The slice keeps the allocation alive after the original handle dies.
  whole = SharedBytes();
  EXPECT_EQ(mid, SharedBytes({3, 4, 5}));
}

TEST(SharedBytesTest, MutationAfterShareIsImpossible) {
  // The owner is const and the API exposes no mutator: sharing is safe by
  // construction. Pin the read-only surface at compile time.
  static_assert(std::is_const_v<
                std::remove_pointer_t<decltype(SharedBytes().data())>>);
  static_assert(
      std::is_same_v<decltype(SharedBytes().span()),
                     std::span<const std::uint8_t>>);
  // And the source vector is detached: mutating it after handoff by value
  // cannot reach the shared buffer.
  std::vector<std::uint8_t> v = {9, 9, 9};
  SharedBytes b = SharedBytes::copy_of(v);
  v[0] = 0;
  EXPECT_EQ(b, SharedBytes({9, 9, 9}));
}

TEST(SharedBytesTest, EqualityIsByContents) {
  SharedBytes a({1, 2, 3});
  SharedBytes b({1, 2, 3});
  EXPECT_FALSE(a.shares_owner_with(b));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == SharedBytes({1, 2, 4}));
  EXPECT_FALSE(a == SharedBytes({1, 2}));
  EXPECT_EQ(SharedBytes(), SharedBytes(std::vector<std::uint8_t>{}));
}

TEST(SharedBytesTest, ReaderBlobsAliasTheSourceBuffer) {
  ByteWriter w;
  w.put_u32(7);
  w.put_bytes(std::vector<std::uint8_t>{5, 6, 7, 8});
  SharedBytes wire(w.take());

  ByteReader r(wire);
  EXPECT_EQ(r.get_u32(), 7u);
  SharedBytes blob = r.get_shared_bytes();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(blob, SharedBytes({5, 6, 7, 8}));
  EXPECT_TRUE(blob.shares_owner_with(wire));  // zero-copy decode

  // Span-based readers (no owner) fall back to copying.
  ByteReader r2(wire.span());
  (void)r2.get_u32();
  SharedBytes copied = r2.get_shared_bytes();
  EXPECT_EQ(copied, blob);
  EXPECT_FALSE(copied.shares_owner_with(wire));
}

TEST(SharedBytesTest, SmallBlobInLargeBufferIsCopiedNotAliased) {
  // Aliasing is capped: a blob that is a small fraction of its source
  // buffer (e.g. one payload among many in a Handoff batch) is copied so a
  // retained payload cannot pin an arbitrarily larger wire allocation.
  ByteWriter w;
  w.put_bytes(std::vector<std::uint8_t>{1, 2, 3, 4});
  w.put_raw(std::vector<std::uint8_t>(500, 0xEE));  // bulk the buffer out
  SharedBytes wire(w.take());

  ByteReader r(wire);
  SharedBytes blob = r.get_shared_bytes();
  EXPECT_EQ(blob, SharedBytes({1, 2, 3, 4}));
  EXPECT_FALSE(blob.shares_owner_with(wire));
}

// --------------------------------------------------------- SharedArray ----

static_assert(std::is_same_v<SharedBytes, SharedArray<std::uint8_t>>);

// A run of ids with padding after `source`, like proto::DigestRange:
// equality compares fields, not bytes.
struct Segment {
  std::uint32_t source = 0;
  std::uint64_t first = 0;

  friend bool operator==(const Segment&, const Segment&) = default;
};

TEST(SharedArrayTest, CopiesShareOneAllocation) {
  std::vector<Segment> segments = {{1, 5}, {2, 9}};
  const Segment* raw = segments.data();
  SharedArray<Segment> a(std::move(segments));
  SharedArray<Segment> b = a;
  SharedArray<Segment> c = b;
  EXPECT_EQ(a.data(), raw);  // took ownership, no copy
  EXPECT_TRUE(b.shares_owner_with(a));
  EXPECT_TRUE(c.shares_owner_with(a));
  EXPECT_EQ(c.data(), raw);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.begin()[1], (Segment{2, 9}));
}

TEST(SharedArrayTest, EqualContentsInDistinctAllocationsCompareEqual) {
  SharedArray<Segment> a{{1, 5}, {2, 9}};
  SharedArray<Segment> b{{1, 5}, {2, 9}};
  EXPECT_FALSE(a.shares_owner_with(b));
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == (SharedArray<Segment>{{1, 5}, {2, 10}}));
  EXPECT_FALSE(a == (SharedArray<Segment>{{1, 5}}));
}

TEST(SharedArrayTest, EmptyArraysCompareEqual) {
  SharedArray<Segment> none;                           // no allocation
  SharedArray<Segment> moved(std::vector<Segment>{});  // an empty one
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(none, moved);
  EXPECT_EQ(moved, none);
  EXPECT_FALSE(none.shares_owner_with(SharedArray<Segment>{}));  // no owner
  EXPECT_FALSE(none == (SharedArray<Segment>{{1, 5}}));
}

// ------------------------------------------------------------- FlatMap ----

using IdMap = common::FlatMap<MessageId, std::uint64_t>;

// Identity hash: a key's home slot is key % capacity, so a test can aim
// two keys at one slot.
struct IdentityHash {
  std::size_t operator()(std::uint64_t k) const { return k; }
};
using SlotMap = common::FlatMap<std::uint64_t, std::uint64_t, IdentityHash>;

MessageId id_of(std::uint64_t seq) { return MessageId{7, seq}; }

TEST(FlatMapTest, GrowsFromFourSlots) {
  IdMap m;
  EXPECT_EQ(m.capacity(), 0u);  // nothing allocated before the first insert
  m[id_of(1)] = 1;
  EXPECT_EQ(m.capacity(), 4u);
  m[id_of(2)] = 2;
  EXPECT_EQ(m.capacity(), 4u);  // 2 of 4 slots: under the 70% bound
  m[id_of(3)] = 3;
  EXPECT_EQ(m.capacity(), 8u);
  for (std::uint64_t s = 4; s <= 1000; ++s) m[id_of(s)] = s;
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_EQ(m.capacity(), 2048u);  // the first power of two under 70% load
  for (std::uint64_t s = 1; s <= 1000; ++s) {
    auto it = m.find(id_of(s));
    ASSERT_NE(it, m.end()) << s;
    EXPECT_EQ(it->second, s);
  }
  EXPECT_EQ(m.find(id_of(1001)), m.end());
}

TEST(FlatMapTest, InsertReusesTombstoneInItsProbeChain) {
  SlotMap m;
  m[0] = 10;
  const std::uint64_t cap = m.capacity();
  std::uint64_t* slot0 = &m[0];
  m.erase(std::uint64_t{0});
  // Multiples of the capacity share key 0's home slot: each takes the
  // tombstone its predecessor left rather than the next empty slot, so the
  // table never fills and no rehash moves the entry.
  for (std::uint64_t k = cap; k < 1000 * cap; k += cap) {
    m[k] = k;
    EXPECT_EQ(&m[k], slot0) << k;
    m.erase(k);
  }
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_TRUE(m.empty());
}

TEST(FlatMapTest, ChurnNeverGrowsTheTable) {
  // Recovery and waiter tables see exactly this: each entry is erased
  // before the next arrives. Tombstones fill the table, and a rehash must
  // drop them in place rather than double it (the old rule ended this run
  // at 32,768 slots holding nothing).
  IdMap m;
  for (std::uint64_t s = 1; s <= 65536; ++s) {
    m[id_of(s)] = s;
    EXPECT_EQ(m.erase(id_of(s)), 1u);
  }
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 4u);
  // With one long-lived entry beside the churn, the table stays small too.
  m[id_of(0)] = 0;
  for (std::uint64_t s = 1; s <= 65536; ++s) {
    m[id_of(s)] = s;
    m.erase(id_of(s));
  }
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.capacity(), 4u);
  EXPECT_EQ(m.find(id_of(0))->second, 0u);
}

TEST(FlatMapTest, FindsEveryKeyAfterRehashes) {
  // Interleave erases with growth so each rehash moves live entries past
  // tombstones, in same-size rehashes and in doublings.
  IdMap m;
  std::set<std::uint64_t> live;
  for (std::uint64_t s = 1; s <= 3000; ++s) {
    m[id_of(s)] = s * 3;
    live.insert(s);
    if (s % 3 == 0) {
      m.erase(id_of(s - 1));
      live.erase(s - 1);
    }
  }
  EXPECT_EQ(m.size(), live.size());
  for (std::uint64_t s = 1; s <= 3000; ++s) {
    auto it = m.find(id_of(s));
    if (live.count(s)) {
      ASSERT_NE(it, m.end()) << s;
      EXPECT_EQ(it->second, s * 3);
    } else {
      EXPECT_EQ(it, m.end()) << s;
    }
  }
}

TEST(FlatMapTest, EraseThenReinsertStartsFresh) {
  common::FlatMap<MessageId, std::vector<MemberId>> m;
  m[id_of(5)] = {1, 2, 3};
  EXPECT_EQ(m.erase(id_of(5)), 1u);
  EXPECT_EQ(m.erase(id_of(5)), 0u);  // already gone
  EXPECT_EQ(m.count(id_of(5)), 0u);
  EXPECT_TRUE(m[id_of(5)].empty());  // a fresh value, not the erased one
  m[id_of(5)].push_back(9);
  auto [it, inserted] = m.emplace(id_of(5), std::vector<MemberId>{4});
  EXPECT_FALSE(inserted);  // present: emplace leaves the value alone
  EXPECT_EQ(it->second, std::vector<MemberId>{9});
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, IterationVisitsEachLiveEntryOnce) {
  IdMap m;
  for (std::uint64_t s = 1; s <= 200; ++s) m[id_of(s)] = s;
  for (std::uint64_t s = 1; s <= 200; s += 2) m.erase(id_of(s));
  std::multiset<std::uint64_t> seen;
  for (auto& [id, v] : m) {
    EXPECT_EQ(id.seq, v);
    seen.insert(id.seq);
  }
  EXPECT_EQ(seen.size(), 100u);
  for (std::uint64_t s = 2; s <= 200; s += 2) EXPECT_EQ(seen.count(s), 1u) << s;
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomOperations) {
  RandomEngine rng(0xF1A7);
  IdMap m;
  std::unordered_map<MessageId, std::uint64_t> ref;
  for (int op = 0; op < 200000; ++op) {
    // A small key space keeps hits, misses and reinserts all common; the
    // phases move the live count up and down through several capacities.
    std::int64_t span = (op / 20000) % 2 == 0 ? 64 : 512;
    MessageId id = id_of(static_cast<std::uint64_t>(rng.uniform_int(0, span)));
    std::uint64_t value = rng.next_u64();
    switch (rng.uniform_int(0, 3)) {
      case 0:
        m[id] = value;
        ref[id] = value;
        break;
      case 1:
        EXPECT_EQ(m.emplace(id, value).second, ref.emplace(id, value).second);
        break;
      case 2:
        EXPECT_EQ(m.erase(id), ref.erase(id));
        break;
      default: {
        auto it = m.find(id);
        auto rit = ref.find(id);
        ASSERT_EQ(it == m.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(it->second, rit->second);
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << "op " << op;
  }
  std::map<std::uint64_t, std::uint64_t> got, want;
  std::size_t visits = 0;
  for (auto& [id, v] : m) {
    got.emplace(id.seq, v);
    ++visits;
  }
  for (auto& [id, v] : ref) want.emplace(id.seq, v);
  EXPECT_EQ(got, want);
  EXPECT_EQ(visits, ref.size());  // no key visited twice
}

}  // namespace
}  // namespace rrmp

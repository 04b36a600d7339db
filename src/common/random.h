// Deterministic randomness for protocol endpoints and experiments.
//
// Every source of randomness in the system is a RandomEngine derived from a
// single master seed via fork(), so whole-cluster simulations replay
// bit-identically for a given seed regardless of container iteration order.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace rrmp {

/// splitmix64 step: the seed-mixing primitive used by RandomEngine::fork.
std::uint64_t splitmix64(std::uint64_t& state);

class RandomEngine {
 public:
  explicit RandomEngine(std::uint64_t seed);

  /// Derive an independent child engine. Deterministic in (seed, stream):
  /// fork(k) on engines with equal seeds yields equal children, and children
  /// with different stream ids are statistically independent. fork() is
  /// const: deriving children never consumes parent state, so the parent's
  /// own output sequence is unaffected by how many forks were taken.
  RandomEngine fork(std::uint64_t stream) const;

  /// Derive `n` independent child engines in one call: child i is
  /// fork(domain + i), with `domain` separating unrelated split sites that
  /// share a parent. The sharded network derives its per-region lane
  /// streams this way; the unit tests pin the fork/split equivalence.
  std::vector<RandomEngine> split(std::size_t n, std::uint64_t domain = 0) const;

  std::uint64_t seed() const { return seed_; }

  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial; p clamped to [0, 1].
  bool bernoulli(double p);

  /// Number of successes in n Bernoulli(p) trials, in O(1) expected time
  /// per draw regardless of n: inversion (BINV) when n·min(p,1-p) < 30,
  /// BTPE-style rejection (Kachitvichyanukul & Schmeiser 1988) otherwise.
  /// p is clamped to [0, 1]. Deterministic in the engine state, so the
  /// Monte Carlo drivers replay bit-identically for a given seed.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// k distinct indices sampled uniformly from [0, n). Requires k <= n.
  /// Order of the returned indices is randomized.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  /// The mt19937_64 state (2.5 KB, 312-word seeding pass) materializes on
  /// the first draw, not at construction: forking one engine per member of
  /// a large cluster is O(1) per member, and engines that never draw — most
  /// members of a search experiment — never pay for seeding. The output
  /// sequence is bit-identical to eager seeding.
  std::mt19937_64& engine() {
    if (!rng_) {
      std::uint64_t s = seed_;
      rng_.emplace(splitmix64(s));
    }
    return *rng_;
  }

  std::uint64_t seed_;
  std::optional<std::mt19937_64> rng_;
};

}  // namespace rrmp

#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace rrmp {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The seed is expanded through splitmix64 before feeding mt19937_64 (raw
// small seeds 0, 1, 2, ... otherwise produce correlated early output); the
// expansion and the engine's seeding pass both happen lazily in engine().
RandomEngine::RandomEngine(std::uint64_t seed) : seed_(seed) {}

RandomEngine RandomEngine::fork(std::uint64_t stream) const {
  std::uint64_t s = seed_ ^ (0xa0761d6478bd642fULL * (stream + 1));
  return RandomEngine(splitmix64(s));
}

std::uint32_t RandomEngine::next_u32() {
  return static_cast<std::uint32_t>(engine()() >> 32);
}

std::uint64_t RandomEngine::next_u64() { return engine()(); }

std::int64_t RandomEngine::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
}

double RandomEngine::uniform_real(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine());
}

bool RandomEngine::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine());
}

namespace {

// BINV: sequential search of the CDF starting at 0. Expected iterations are
// ~n·r + 1, so it is used only when n·r is small. Requires 0 < r <= 0.5.
std::uint64_t binomial_inversion(std::mt19937_64& rng, std::uint64_t n,
                                 double r) {
  const double dn = static_cast<double>(n);
  const double q = 1.0 - r;
  const double s = r / q;
  const double a = (dn + 1.0) * s;
  // q^n; with n·r < 30 and r <= 0.5 this is >= e^-30, comfortably normal.
  const double f0 = std::pow(q, dn);
  for (;;) {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    double f = f0;
    std::uint64_t x = 0;
    while (u > f) {
      u -= f;
      ++x;
      if (x > n) break;  // numerical tail guard: retry with a fresh u
      f *= a / static_cast<double>(x) - s;
    }
    if (x <= n) return x;
  }
}

// Counts n Bernoulli(r) trials: O(n), and exact for every n.
std::uint64_t binomial_count(std::mt19937_64& rng, std::uint64_t n, double r) {
  std::bernoulli_distribution trial(r);
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < n; ++i) k += trial(rng) ? 1 : 0;
  return k;
}

}  // namespace

std::uint64_t RandomEngine::binomial(std::uint64_t n, double p) {
  p = std::clamp(p, 0.0, 1.0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const bool flipped = p > 0.5;
  const double r = flipped ? 1.0 - p : p;
  const std::uint64_t k = static_cast<double>(n) * r < 30.0
                              ? binomial_inversion(engine(), n, r)
                              : binomial_count(engine(), n, r);
  return flipped ? n - k : k;
}

std::vector<std::size_t> RandomEngine::sample_indices(std::size_t n,
                                                      std::size_t k) {
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k == 0 || n == 0) return out;
  if (k >= n) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    shuffle(out);
    return out;
  }
  if (k * 3 >= n) {
    // Dense case: partial Fisher–Yates over the full index range.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = static_cast<std::size_t>(
          uniform_int(static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(n) - 1));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }
  // Sparse case: rejection sampling.
  std::unordered_set<std::size_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    auto v = static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace rrmp

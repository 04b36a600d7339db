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

std::vector<RandomEngine> RandomEngine::split(std::size_t n,
                                              std::uint64_t domain) const {
  std::vector<RandomEngine> children;
  children.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    children.push_back(fork(domain + i));
  }
  return children;
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

// BTPE (Binomial, Triangle/Parallelogram/Exponential): rejection from a
// piecewise dominating envelope around the mode, with squeeze and Stirling
// acceptance tests. Requires n·r >= 30 and 0 < r <= 0.5.
std::uint64_t binomial_btpe(std::mt19937_64& rng, std::uint64_t n, double r) {
  const double dn = static_cast<double>(n);
  const double q = 1.0 - r;
  const double fm = dn * r + r;
  const auto m = static_cast<std::int64_t>(fm);  // mode
  const double dm = static_cast<double>(m);
  const double nrq = dn * r * q;
  const double p1 = std::floor(2.195 * std::sqrt(nrq) - 4.6 * q) + 0.5;
  const double xm = dm + 0.5;
  const double xl = xm - p1;
  const double xr = xm + p1;
  const double c = 0.134 + 20.5 / (15.3 + dm);
  double al = (fm - xl) / (fm - xl * r);
  const double lambda_l = al * (1.0 + 0.5 * al);
  double ar = (xr - fm) / (xr * q);
  const double lambda_r = ar * (1.0 + 0.5 * ar);
  const double p2 = p1 * (1.0 + 2.0 * c);
  const double p3 = p2 + c / lambda_l;
  const double p4 = p3 + c / lambda_r;

  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };

  for (;;) {
    const double u = uniform(0.0, p4);
    double v = uniform(0.0, 1.0);
    std::int64_t y;
    if (u <= p1) {
      // Triangular central region: accept immediately.
      return static_cast<std::uint64_t>(std::floor(xm - p1 * v + u));
    }
    if (u <= p2) {
      // Parallelogram: squeeze v against the triangle before testing.
      const double x = xl + (u - p1) / c;
      v = v * c + 1.0 - std::fabs(dm - x + 0.5) / p1;
      if (v > 1.0 || v <= 0.0) continue;
      y = static_cast<std::int64_t>(std::floor(x));
    } else if (u <= p3) {
      // Left exponential tail.
      y = static_cast<std::int64_t>(std::floor(xl + std::log(v) / lambda_l));
      if (y < 0) continue;
      v = v * (u - p2) * lambda_l;
    } else {
      // Right exponential tail.
      y = static_cast<std::int64_t>(std::floor(xr - std::log(v) / lambda_r));
      if (y > static_cast<std::int64_t>(n)) continue;
      v = v * (u - p3) * lambda_r;
    }
    // Acceptance: compare v against f(y)/f(m).
    const auto k = static_cast<std::int64_t>(
        y > m ? y - m : m - y);
    if (k <= 20 || static_cast<double>(k) >= nrq / 2.0 - 1.0) {
      // Explicit ratio product (cheap for k near the mode or in the far
      // tail, where the recursion is short or rejection is near-certain).
      const double s = r / q;
      const double a = s * (dn + 1.0);
      double f = 1.0;
      if (m < y) {
        for (std::int64_t i = m + 1; i <= y; ++i) {
          f *= a / static_cast<double>(i) - s;
        }
      } else if (m > y) {
        for (std::int64_t i = y + 1; i <= m; ++i) {
          f /= a / static_cast<double>(i) - s;
        }
      }
      if (v <= f) return static_cast<std::uint64_t>(y);
      continue;
    }
    // Squeeze on log f(y)/f(m) before the full Stirling evaluation.
    const double dk = static_cast<double>(k);
    const double rho =
        (dk / nrq) * ((dk * (dk / 3.0 + 0.625) + 1.0 / 6.0) / nrq + 0.5);
    const double t = -dk * dk / (2.0 * nrq);
    const double log_v = std::log(v);
    if (log_v < t - rho) return static_cast<std::uint64_t>(y);
    if (log_v > t + rho) continue;
    // Full acceptance test with Stirling-series correction terms.
    const double dy = static_cast<double>(y);
    const double x1 = dy + 1.0;
    const double f1 = dm + 1.0;
    const double z = dn + 1.0 - dm;
    const double w = dn - dy + 1.0;
    const double z2 = z * z;
    const double x2 = x1 * x1;
    const double f2 = f1 * f1;
    const double w2 = w * w;
    auto stirling = [](double xx, double xx2) {
      return (13860.0 -
              (462.0 - (132.0 - (99.0 - 140.0 / xx2) / xx2) / xx2) / xx2) /
             xx / 166320.0;
    };
    // log f(y)/f(m) via log-Gamma Stirling series: the phi corrections for
    // the numerator factorials (f1 = m+1, z = n-m+1) add, those for the
    // denominator (x1 = y+1, w = n-y+1) subtract. (At y == m the main terms
    // vanish and the phis cancel exactly, as they must.)
    const double accept =
        xm * std::log(f1 / x1) + (dn - dm + 0.5) * std::log(z / w) +
        (dy - dm) * std::log(w * r / (x1 * q)) + stirling(f1, f2) +
        stirling(z, z2) - stirling(x1, x2) - stirling(w, w2);
    if (log_v <= accept) return static_cast<std::uint64_t>(y);
  }
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
                              : binomial_btpe(engine(), n, r);
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

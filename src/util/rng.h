// Deterministic pseudo-random number generation.
//
// All stochastic components of ngdlib (graph generators, update generators,
// rule generators) take an explicit seed and use this generator, so every
// benchmark workload and every test is exactly reproducible across runs
// and platforms. The core is xoroshiro128++ seeded via splitmix64.

#ifndef NGD_UTIL_RNG_H_
#define NGD_UTIL_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ngd {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 expansion of the seed into the 128-bit state.
    uint64_t x = seed;
    for (uint64_t* s : {&s0_, &s1_}) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      *s = z ^ (z >> 31);
    }
    if (s0_ == 0 && s1_ == 0) s0_ = 1;  // all-zero state is invalid
  }

  uint64_t NextUint64() {
    const uint64_t a = s0_;
    uint64_t b = s1_;
    const uint64_t result = Rotl(a + b, 17) + a;
    b ^= a;
    s0_ = Rotl(a, 49) ^ b ^ (b << 21);
    s1_ = Rotl(b, 28);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
    return lo + static_cast<int64_t>(NextUint64() % range);
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Uniformly picks an element from a non-empty vector.
  template <typename T>
  const T& PickFrom(const std::vector<T>& v) {
    assert(!v.empty());
    return v[static_cast<size_t>(NextUint64() % v.size())];
  }

  /// Zipf-like rank sample in [0, n): rank r drawn with weight
  /// proportional to 1/(r+1)^theta. Used to generate skewed label and
  /// degree distributions resembling real knowledge graphs; theta = 0
  /// degenerates to uniform.
  size_t Zipf(size_t n, double theta) {
    assert(n > 0);
    if (theta <= 0.0) return static_cast<size_t>(NextUint64() % n);
    if (n <= 64) {
      // Exact inverse-CDF scan for small n.
      double total = 0.0;
      for (size_t r = 0; r < n; ++r)
        total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      double u = UniformDouble() * total;
      for (size_t r = 0; r < n; ++r) {
        u -= 1.0 / std::pow(static_cast<double>(r + 1), theta);
        if (u <= 0.0) return r;
      }
      return n - 1;
    }
    // Approximate power-law transform for large n (clamped exponent keeps
    // the transform finite as theta -> 1).
    double t = theta >= 0.99 ? 0.99 : theta;
    double u = UniformDouble();
    double x = static_cast<double>(n) * std::pow(u, 1.0 / (1.0 - t));
    size_t r = static_cast<size_t>(x);
    return r >= n ? n - 1 : r;
  }

  /// Derives an independent child generator (for per-thread determinism).
  Rng Fork() { return Rng(NextUint64() ^ 0xd6e8feb86659fd93ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s0_;
  uint64_t s1_;
};

}  // namespace ngd

#endif  // NGD_UTIL_RNG_H_

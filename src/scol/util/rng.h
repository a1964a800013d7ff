// Deterministic pseudo-random generator (xoshiro256** seeded by splitmix64).
//
// All randomized generators in scol take an explicit Rng so that every
// experiment and test is reproducible from a seed.
#pragma once

#include <cstdint>

#include "scol/util/check.h"

namespace scol {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // splitmix64 to spread the seed over the full state.
    std::uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      si = mix64(x);
    }
  }

  /// Deterministic decorrelated stream: the generator for (seed, stream_id)
  /// depends only on those two values. LOCAL-engine programs draw one
  /// stream per (vertex, round), which makes randomness independent of
  /// vertex visitation order — parallel runs are bit-identical to serial.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id) {
    return Rng(mix64(seed) ^ mix64(~stream_id));
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be positive.
  std::uint64_t below(std::uint64_t bound) {
    SCOL_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias: reject r below the
    // threshold (2^64 - bound) % bound. The threshold is below bound, so
    // a draw r >= bound is accepted without computing it.
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound || r >= -bound % bound) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    SCOL_CHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  bool chance(double p) { return real() < p; }

  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  // splitmix64 finalizer.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace scol

#include "scol/gen/scale.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "scol/util/check.h"

namespace scol {

Graph rmat(Vertex scale, std::int64_t edgefactor, double a, double b,
           double c, Rng& rng) {
  SCOL_REQUIRE(scale >= 0 && scale <= 30,
               + "rmat scale must be in [0, 30] (n = 2^scale, 32-bit ids)");
  SCOL_REQUIRE(edgefactor >= 0, + "rmat edgefactor must be non-negative");
  SCOL_REQUIRE(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
               + "rmat quadrant probabilities must be non-negative with "
                 "a + b + c <= 1");
  const Vertex n = static_cast<Vertex>(Vertex{1} << scale);
  const std::int64_t attempts = edgefactor * static_cast<std::int64_t>(n);
  GraphBuilder builder(n);
  builder.reserve(static_cast<std::size_t>(attempts));
  // real() is next() >> 11 scaled by 2^-53, exactly, so r >= t holds iff
  // next() >> 11 >= ceil(t * 2^53): the integer compare below makes the
  // same draws pick the same quadrants with no int-to-double conversion.
  const auto threshold = [](double t) {
    return static_cast<std::uint64_t>(std::ceil(t * 0x1.0p53));
  };
  const std::uint64_t ta = threshold(a);
  const std::uint64_t tab = threshold(a + b);
  const std::uint64_t tabc = threshold(a + b + c);
  for (std::int64_t i = 0; i < attempts; ++i) {
    // Recursive quadrant descent: each level halves the adjacency
    // matrix; (a, b, c, d) pick the quadrant. Every rng draw happens
    // whether or not the attempt survives, so the stream position — and
    // with it every later attempt — is a pure function of the seed.
    Vertex u = 0;
    Vertex v = 0;
    // The quadrant bits are computed without branches: on a uniform
    // draw every comparison is a coin flip a branch predictor loses.
    for (Vertex level = 0; level < scale; ++level) {
      const std::uint64_t r = rng.next() >> 11;
      const bool u_high = r >= tab;                              // c or d
      const bool v_high = ((r >= ta) & (r < tab)) | (r >= tabc);  // b or d
      u = static_cast<Vertex>(2 * u + u_high);
      v = static_cast<Vertex>(2 * v + v_high);
    }
    if (u == v) continue;  // self-attempt; dropped like io self-loops
    builder.add_edge(u, v);
  }
  return builder.build();  // duplicate attempts merge in the CSR build
}

Graph powerlaw(Vertex n, std::int64_t m, double alpha, Rng& rng) {
  SCOL_REQUIRE(n >= 0, + "powerlaw n must be non-negative");
  SCOL_REQUIRE(m >= 0, + "powerlaw m must be non-negative");
  SCOL_REQUIRE(alpha > 1.0, + "powerlaw alpha must exceed 1");
  const std::int64_t max_m =
      static_cast<std::int64_t>(n) * (static_cast<std::int64_t>(n) - 1) / 2;
  SCOL_REQUIRE(m <= max_m,
               + ("powerlaw m = " + std::to_string(m) +
                  " exceeds the simple-graph maximum n*(n-1)/2 = " +
                  std::to_string(max_m)));
  // Chung–Lu expected-degree weights w_v = (n / (v + 1))^(1 / (alpha-1)):
  // the resulting degree tail follows P[deg >= d] ~ d^(1 - alpha).
  // Endpoints are drawn independently from the weight distribution: a
  // uniform r in [0, total) picks the vertex whose prefix-sum interval
  // holds it, the upper_bound of r.
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  const double exponent = 1.0 / (alpha - 1.0);
  for (Vertex v = 0; v < n; ++v)
    prefix[static_cast<std::size_t>(v) + 1] =
        prefix[static_cast<std::size_t>(v)] +
        std::pow(static_cast<double>(n) / static_cast<double>(v + 1),
                 exponent);
  const double total = prefix.back();
  // Guide table: a draw r belongs to bucket bucket_of(r), about
  // r * n / total, and guide[b] is the first index whose prefix sum
  // belongs to bucket b or a later one. bucket_of is monotone, so every
  // prefix sum before guide[b] is <= r and every one from guide[b + 1] on
  // is > r: searching only [guide[b], guide[b + 1]) — usually empty or a
  // few entries — finds exactly the upper_bound of the full array, equal
  // prefix sums and r == total included.
  const std::size_t buckets = std::max<std::size_t>(1, prefix.size() - 1);
  const double buckets_per_unit = static_cast<double>(buckets) / total;
  const auto bucket_of = [&](double x) {
    // A NaN or infinite product (weights that overflow to infinity when
    // alpha is near 1) lands in the last bucket, as r == total does.
    const double slot = x * buckets_per_unit;
    return slot < static_cast<double>(buckets)
               ? static_cast<std::size_t>(slot)
               : buckets - 1;
  };
  std::vector<std::uint32_t> guide(
      buckets + 1, static_cast<std::uint32_t>(prefix.size()));
  for (std::size_t i = 0, b = 0; i < prefix.size(); ++i)
    for (const std::size_t last = bucket_of(prefix[i]); b <= last; ++b)
      guide[b] = static_cast<std::uint32_t>(i);
  const auto draw = [&]() {
    const double r = rng.real() * total;
    const std::size_t b = bucket_of(r);
    const auto it = std::upper_bound(prefix.begin() + guide[b],
                                     prefix.begin() + guide[b + 1], r);
    SCOL_DCHECK((it == prefix.begin() || !(r < it[-1])) &&
                    (it == prefix.end() || r < *it),
                + "powerlaw guide window must hold the upper_bound");
    const auto idx = static_cast<Vertex>(
        std::min<std::ptrdiff_t>(it - prefix.begin() - 1, n - 1));
    return std::max<Vertex>(0, idx);
  };
  // Exactly m DISTINCT edges: rejection on self-loops and repeats. The
  // attempt cap turns a near-infeasible request (m too close to what the
  // skewed weights can reach) into a loud error instead of a hang.
  // `seen` is a flat open-addressing set of key + 1 (0 marks an empty
  // slot), at most half full, probed linearly. The keys lo * n + hi are
  // structured, so a key's home slot is the high bits of a
  // multiplicative hash, not its low bits.
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(2, 2 * static_cast<std::size_t>(m)));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<std::uint64_t> seen(capacity, 0);
  const auto insert = [&](std::uint64_t key) {
    std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> shift;
    for (; seen[slot] != 0; slot = (slot + 1) & (capacity - 1))
      if (seen[slot] == key + 1) return false;
    seen[slot] = key + 1;
    return true;
  };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  const std::int64_t attempt_cap = 64 * m + 4096;
  std::int64_t tries = 0;
  while (static_cast<std::int64_t>(edges.size()) < m) {
    SCOL_REQUIRE(tries++ < attempt_cap,
                 + ("powerlaw rejection budget exhausted: could not place " +
                    std::to_string(m) + " distinct edges on " +
                    std::to_string(n) +
                    " vertices with alpha = " + std::to_string(alpha) +
                    " (lower m or alpha)"));
    const Vertex u = draw();
    const Vertex v = draw();
    if (u == v) continue;
    const Vertex lo = std::min(u, v);
    const Vertex hi = std::max(u, v);
    const std::uint64_t key = static_cast<std::uint64_t>(lo) *
                                  static_cast<std::uint64_t>(n) +
                              static_cast<std::uint64_t>(hi);
    if (!insert(key)) continue;
    edges.emplace_back(lo, hi);
  }
  return Graph::from_edges(n, edges);
}

Graph pref_attach(Vertex n, Vertex k, Rng& rng) {
  SCOL_REQUIRE(n >= 0, + "pref-attach n must be non-negative");
  SCOL_REQUIRE(k >= 1 && k < std::max<Vertex>(n, 2),
               + "pref-attach needs 1 <= k < n");
  // `stubs` holds every edge endpoint, so a uniform draw from it IS the
  // degree-proportional draw.
  const std::size_t total_edges =
      static_cast<std::size_t>(k) * (static_cast<std::size_t>(k) - 1) / 2 +
      static_cast<std::size_t>(std::max<Vertex>(0, n - k)) *
          static_cast<std::size_t>(k);
  std::vector<Vertex> stubs;
  stubs.reserve(2 * total_edges);
  std::vector<Edge> edges;
  edges.reserve(total_edges);
  for (Vertex u = 0; u < std::min(k, n); ++u)
    for (Vertex v = 0; v < u; ++v) {
      edges.emplace_back(v, u);
      stubs.push_back(u);
      stubs.push_back(v);
    }
  std::vector<Vertex> chosen;
  for (Vertex v = k; v < n; ++v) {
    chosen.clear();
    // k distinct degree-proportional targets; v has at least k
    // predecessors, so the redraw loop always terminates.
    while (static_cast<Vertex>(chosen.size()) < k) {
      // k = 1 starts with an edgeless (single-vertex) seed; the first
      // attachment has no stubs yet and picks uniformly.
      const Vertex t = stubs.empty()
                           ? static_cast<Vertex>(rng.below(
                                 static_cast<std::uint64_t>(v)))
                           : stubs[rng.below(stubs.size())];
      if (std::find(chosen.begin(), chosen.end(), t) != chosen.end())
        continue;
      chosen.push_back(t);
    }
    for (const Vertex t : chosen) {
      edges.emplace_back(std::min(t, v), std::max(t, v));
      stubs.push_back(v);
      stubs.push_back(t);
    }
  }
  return Graph::from_edges(n, edges);
}

}  // namespace scol

// Generator invariants: sizes, degrees, girth, planarity, regularity,
// bipartiteness, Klein-bottle structure — and, for the web-scale
// families (gen/scale.h), edge-count exactness, degree-distribution
// shape, per-seed determinism, and campaign JSONL bit-identity across
// job counts.
#include <algorithm>
#include <array>
#include <cmath>
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "scol/api/campaign.h"
#include "scol/flow/density.h"
#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/scale.h"
#include "scol/gen/special.h"
#include "scol/graph/components.h"
#include "scol/graph/girth.h"
#include "scol/planarity/planarity.h"
#include "scol/serve/hash.h"
#include "scol/util/executor.h"

namespace scol {
namespace {

TEST(Gen, GridBasics) {
  const Graph g = grid(4, 6);
  EXPECT_EQ(g.num_vertices(), 24);
  EXPECT_EQ(g.num_edges(), 4 * 5 + 6 * 3);
  EXPECT_EQ(girth(g), 4);
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Gen, TorusAndCylinder) {
  const Graph t = torus_grid(5, 7);
  EXPECT_EQ(t.num_edges(), 2 * 35);
  for (Vertex v = 0; v < t.num_vertices(); ++v) EXPECT_EQ(t.degree(v), 4);
  const Graph c = cylinder(5, 7);
  EXPECT_EQ(c.num_edges(), 5 * 7 + 5 * 6);
}

TEST(Gen, KleinGridStructure) {
  const Graph k = klein_grid(5, 7);
  EXPECT_EQ(k.num_vertices(), 35);
  // Quadrangulation of a closed surface: 4-regular.
  for (Vertex v = 0; v < k.num_vertices(); ++v) EXPECT_EQ(k.degree(v), 4);
  EXPECT_EQ(k.num_edges(), 2 * 35);
  EXPECT_EQ(girth(k), 4);
}

TEST(Gen, HexPatchGirthSix) {
  const Graph h = hex_patch(8, 10);
  EXPECT_EQ(girth(h), 6);
  EXPECT_LE(h.max_degree(), 3);
  EXPECT_TRUE(is_planar(h));
}

TEST(Gen, CirculantAndPowers) {
  const Graph c = cycle_power(11, 3);
  for (Vertex v = 0; v < 11; ++v) EXPECT_EQ(c.degree(v), 6);
  const Graph p = path_power(10, 3);
  EXPECT_EQ(p.num_edges(), 9 + 8 + 7);
  EXPECT_EQ(cycle_power_chromatic_number(12, 3), 4);
  EXPECT_EQ(cycle_power_chromatic_number(13, 3), 5);
  EXPECT_EQ(cycle_power_chromatic_number(14, 3), 5);
}

TEST(Gen, StackedTriangulationIsMaximalPlanar) {
  Rng rng(89);
  const Graph g = random_stacked_triangulation(30, rng);
  EXPECT_EQ(g.num_edges(), 3 * 30 - 6);
  EXPECT_TRUE(is_planar(g));
  EXPECT_TRUE(is_connected(g));
  EXPECT_LT(maximum_average_degree(g).value(), 6.0);
}

// The textbook construction: an array of faces, the chosen one erased.
Graph erasing_stacked_triangulation(Vertex n, Rng& rng) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  std::vector<std::array<Vertex, 3>> faces{{0, 1, 2}, {0, 1, 2}};
  for (Vertex v = 3; v < n; ++v) {
    const std::size_t f = rng.below(faces.size());
    const std::array<Vertex, 3> tri = faces[f];
    faces.erase(faces.begin() + static_cast<std::ptrdiff_t>(f));
    for (Vertex corner : tri) edges.emplace_back(corner, v);
    faces.push_back({tri[0], tri[1], v});
    faces.push_back({tri[1], tri[2], v});
    faces.push_back({tri[0], tri[2], v});
  }
  return Graph::from_edges(n, edges);
}

TEST(Gen, StackedTriangulationMatchesErasingOracle) {
  for (const Vertex n : {3, 4, 5, 100, 5000}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      Rng a(seed), b(seed);
      const Graph fast = random_stacked_triangulation(n, a);
      const Graph oracle = erasing_stacked_triangulation(n, b);
      EXPECT_EQ(fast.edges(), oracle.edges()) << "n " << n << " seed " << seed;
      EXPECT_EQ(a.next(), b.next()) << "n " << n << " seed " << seed;
    }
  }
}

TEST(Gen, GridRandomDiagonalsDegrees) {
  Rng rng(97);
  const Graph g = grid_random_diagonals(6, 6, rng);
  EXPECT_TRUE(is_planar(g));
  EXPECT_EQ(g.num_edges(),
            static_cast<std::int64_t>(6 * 5 * 2 + 5 * 5));  // grid + diagonals
}

TEST(Gen, RandomRegularIsRegular) {
  Rng rng(101);
  for (Vertex d : {3, 4, 6}) {
    const Graph g = random_regular(50, d, rng);
    for (Vertex v = 0; v < 50; ++v) EXPECT_EQ(g.degree(v), d);
    EXPECT_EQ(mad_ceiling(g), d);  // d-regular => mad = d
  }
}

TEST(Gen, RandomRegularPinned) {
  // Pinned output: the CSR digest and the caller's next Rng draw (callers
  // such as proptest.h keep drawing from the same Rng), so any change to
  // the swap loop's draws, order or result shows up here.
  struct Pin {
    Vertex n;
    Vertex d;
    std::uint64_t seed;
    const char* digest;
    std::uint64_t next;
  };
  for (const Pin& pin : {
           Pin{64, 4, 1, "9a2efc02a8813dcccbc2dcafb01ae26d",
               0x2c6bceecb661f261ULL},
           Pin{1000, 3, 2, "fdc0f537ab2e8138aecee5c40b16028c",
               0xc82c25a0e1ba0c4fULL},
           Pin{4096, 5, 3, "08276eaad0b5a8e904c8d06f56273755",
               0x96d491079689deceULL},
           Pin{32768, 4, 7, "c8c1041f0be3fb6c2ae5f2d04a3002e1",
               0x8e28e10b94bcc93fULL},
           // Dense cases, where most proposed swaps are rejected because
           // an edge they would create already exists.
           Pin{20, 17, 11, "6cf920ce111db83f244847bc960e9259",
               0x54069a53c97ca4aeULL},
           Pin{200, 64, 12, "6c8d666bda2f893af74bff0096a546c5",
               0xc4a3b3bf4c6c195fULL},
           Pin{1000, 31, 13, "cba73c2cda88955c6515fd6b3d946988",
               0x2ae10cc6d7796704ULL},
       }) {
    Rng rng(pin.seed);
    const Graph g = random_regular(pin.n, pin.d, rng);
    EXPECT_EQ(hash_graph(g).hex(), pin.digest) << "n=" << pin.n;
    EXPECT_EQ(rng.next(), pin.next) << "n=" << pin.n;
  }
}

// The swap loop as it was before the slot-indexed rows: every accepted swap
// finds its four relinks with std::find, and the edge list is sorted
// before the CSR is built. random_regular must match it draw for draw.
Graph find_swap_regular(Vertex n, Vertex d, Rng& rng) {
  std::vector<Edge> e;
  for (Vertex s = 1; s <= d / 2; ++s)
    for (Vertex i = 0; i < n; ++i) {
      const Vertex j = (i + s) % n;
      e.emplace_back(std::min(i, j), std::max(i, j));
    }
  if (d % 2 == 1)
    for (Vertex i = 0; i < n / 2; ++i)
      e.emplace_back(i, static_cast<Vertex>(i + n / 2));
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());
  const auto dd = static_cast<std::size_t>(d);
  std::vector<Vertex> nbr(static_cast<std::size_t>(n) * dd);
  std::vector<std::size_t> fill(static_cast<std::size_t>(n), 0);
  const auto row = [&](Vertex v) {
    return nbr.data() + static_cast<std::size_t>(v) * dd;
  };
  for (const auto& [u, v] : e) {
    row(u)[fill[static_cast<std::size_t>(u)]++] = v;
    row(v)[fill[static_cast<std::size_t>(v)]++] = u;
  }
  const auto adjacent = [&](Vertex u, Vertex v) {
    return std::find(row(u), row(u) + dd, v) != row(u) + dd;
  };
  const auto relink = [&](Vertex u, Vertex from, Vertex to) {
    *std::find(row(u), row(u) + dd, from) = to;
  };
  const std::size_t swaps = 20 * e.size();
  for (std::size_t t = 0; t < swaps; ++t) {
    const std::size_t i = rng.below(e.size());
    const std::size_t j = rng.below(e.size());
    if (i == j) continue;
    auto [a, b] = e[i];
    auto [c, x] = e[j];
    if (rng.chance(0.5)) std::swap(c, x);
    if (a == c || a == x || b == c || b == x) continue;
    if (adjacent(a, c) || adjacent(b, x)) continue;
    relink(a, b, c);
    relink(b, a, x);
    relink(c, x, a);
    relink(x, c, b);
    e[i] = {std::min(a, c), std::max(a, c)};
    e[j] = {std::min(b, x), std::max(b, x)};
  }
  std::sort(e.begin(), e.end());
  return Graph::from_edges(n, e);
}

TEST(Gen, RandomRegularMatchesFindSwapOracle) {
  for (const Vertex d : {1, 2, 3, 4, 5, 7, 16, 31}) {
    // From the complete graph (n = d + 1) up to 4096; an odd d needs an
    // even n, so odd sizes round up.
    for (Vertex n : {d + 1, d + 2, d + 3, 2 * d + 1, 64, 257, 1000, 4096}) {
      if (d % 2 == 1 && n % 2 == 1) ++n;
      if (n <= d) continue;
      for (const std::uint64_t seed : {1, 2, 3}) {
        Rng got_rng(seed);
        Rng want_rng(seed);
        const Graph got = random_regular(n, d, got_rng);
        const Graph want = find_swap_regular(n, d, want_rng);
        EXPECT_EQ(hash_graph(got).hex(), hash_graph(want).hex())
            << "n=" << n << " d=" << d << " seed=" << seed;
        EXPECT_EQ(got_rng.next(), want_rng.next())
            << "n=" << n << " d=" << d << " seed=" << seed;
      }
    }
  }
  // The two preconditions keep their texts.
  const auto what = [](Vertex n, Vertex d) {
    Rng rng(1);
    try {
      (void)random_regular(n, d, rng);
    } catch (const PreconditionError& e) {
      const std::string w = e.what();
      return w.substr(0, w.find(" at ")) +
             (w.find(" — ") == std::string::npos ? ""
                                                 : w.substr(w.find(" — ")));
    }
    return std::string("no error");
  };
  EXPECT_EQ(what(5, 3), "REQUIRE failed: (static_cast<std::int64_t>(n) * d) "
                        "% 2 == 0 — n*d must be even");
  EXPECT_EQ(what(4, 4), "REQUIRE failed: n > d && d >= 1");
  EXPECT_EQ(what(4, 0), "REQUIRE failed: n > d && d >= 1");
}

TEST(Gen, RandomTreeIsTree) {
  Rng rng(103);
  for (int t = 0; t < 10; ++t) {
    const Graph g = random_tree(30, rng);
    EXPECT_EQ(g.num_edges(), 29);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Gen, ForestUnionEdgeCount) {
  Rng rng(107);
  const Graph g = random_forest_union(40, 3, rng);
  EXPECT_LE(g.num_edges(), 3 * 39);
  EXPECT_GT(g.num_edges(), 39);  // should overlap little
}

TEST(Gen, GnmExactEdges) {
  Rng rng(109);
  const Graph g = gnm(25, 60, rng);
  EXPECT_EQ(g.num_edges(), 60);
}

TEST(Gen, NamedGraphInvariants) {
  EXPECT_EQ(petersen().num_edges(), 15);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(petersen().degree(v), 3);
  EXPECT_EQ(heawood().num_edges(), 21);
  for (Vertex v = 0; v < 14; ++v) EXPECT_EQ(heawood().degree(v), 3);
  EXPECT_EQ(mcgee().num_edges(), 36);
  for (Vertex v = 0; v < 24; ++v) EXPECT_EQ(mcgee().degree(v), 3);
  EXPECT_EQ(grotzsch().num_edges(), 20);
}

TEST(Gen, KleinGridDeterministic) {
  // Same parameters, same graph (determinism).
  EXPECT_EQ(klein_grid(5, 9).edges(), klein_grid(5, 9).edges());
}

// --- Web-scale families (gen/scale.h) -------------------------------------

TEST(GenScale, RmatEdgeCountsAndBounds) {
  Rng rng(51001);
  const Graph g = rmat(10, 8, 0.57, 0.19, 0.19, rng);
  EXPECT_EQ(g.num_vertices(), 1024);
  // Self-attempts drop and duplicates merge, so the distinct count is
  // below the attempt count but (at these parameters) not collapsed.
  EXPECT_LE(g.num_edges(), 8 * 1024);
  EXPECT_GE(g.num_edges(), 4 * 1024);
}

TEST(GenScale, RmatQuadrantSkew) {
  // With (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) the top-level quadrant
  // of an attempt is (low, low) with probability a and (high, high) with
  // probability d: the low-id half of the matrix must be dramatically
  // denser. Dedup compresses the dense quadrant hardest, so the test
  // uses generous margins around the attempt-level expectations.
  Rng rng(51007);
  const Vertex n = 4096;
  const Graph g = rmat(12, 8, 0.57, 0.19, 0.19, rng);
  std::int64_t low_low = 0;
  std::int64_t high_high = 0;
  for (const auto& [u, v] : g.edges()) {
    if (u < n / 2 && v < n / 2) ++low_low;
    if (u >= n / 2 && v >= n / 2) ++high_high;
  }
  const double total = static_cast<double>(g.num_edges());
  EXPECT_GT(low_low / total, 0.40);
  EXPECT_LT(high_high / total, 0.12);
  EXPECT_GT(low_low, 5 * high_high);
}

TEST(GenScale, RmatSeedDeterminism) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  const Graph ga = rmat(9, 6, 0.57, 0.19, 0.19, a);
  EXPECT_EQ(ga.edges(), rmat(9, 6, 0.57, 0.19, 0.19, b).edges());
  EXPECT_NE(ga.edges(), rmat(9, 6, 0.57, 0.19, 0.19, c).edges());
}

// rmat's descent as it was before the integer thresholds: each level
// compares rng.real() against the doubles a, a + b and a + b + c. Kept as
// the oracle that the integer compare picks the same quadrants.
Graph rmat_double_compare(Vertex scale, std::int64_t edgefactor, double a,
                          double b, double c, Rng& rng) {
  const Vertex n = Vertex{1} << scale;
  const double ab = a + b;
  const double abc = a + b + c;
  GraphBuilder builder(n);
  for (std::int64_t i = 0; i < edgefactor * n; ++i) {
    Vertex u = 0;
    Vertex v = 0;
    for (Vertex level = 0; level < scale; ++level) {
      const double r = rng.real();
      u = 2 * u + (r >= ab);
      v = 2 * v + (((r >= a) && (r < ab)) || (r >= abc));
    }
    if (u != v) builder.add_edge(u, v);
  }
  return builder.build();
}

TEST(GenScale, RmatMatchesDoubleCompareOracle) {
  // The default quadrants, degenerate ones, and thresholds that are not
  // integral multiples of 2^-53.
  const std::array<std::array<double, 3>, 4> params = {{{0.57, 0.19, 0.19},
                                                        {0.5, 0.5, 0.0},
                                                        {1.0, 0.0, 0.0},
                                                        {0.1, 0.2, 0.3}}};
  for (const auto& [a, b, c] : params) {
    Rng rng(51013);
    Rng oracle_rng(51013);
    const Graph g = rmat(10, 8, a, b, c, rng);
    const Graph want = rmat_double_compare(10, 8, a, b, c, oracle_rng);
    EXPECT_EQ(g.num_vertices(), want.num_vertices());
    EXPECT_EQ(g.edges(), want.edges()) << a << " " << b << " " << c;
    EXPECT_EQ(rng.next(), oracle_rng.next()) << "same number of draws";
  }
}

TEST(GenScale, PowerlawExactEdgeCountAndDeterminism) {
  Rng a(301);
  Rng b(301);
  const Graph ga = powerlaw(500, 1750, 2.5, a);
  EXPECT_EQ(ga.num_vertices(), 500);
  EXPECT_EQ(ga.num_edges(), 1750);  // exactly m, not approximately
  EXPECT_EQ(ga.edges(), powerlaw(500, 1750, 2.5, b).edges());
}

TEST(GenScale, PowerlawTailSlopeWithinTolerance) {
  // Chung–Lu weights target P[deg >= d] ~ d^(1 - alpha); a log-log
  // least-squares fit of the complementary CDF over one decade must
  // recover a slope near 1 - alpha = -1.5. The tolerance is loose — the
  // generator is exact-m conditioned and dedup bends the extreme tail —
  // but tight enough to reject uniform (slope that stays near 0 until a
  // cliff) and dense-core shapes.
  Rng rng(307);
  const Vertex n = 20000;
  const Graph g = powerlaw(n, 80000, 2.5, rng);
  std::vector<double> log_d;
  std::vector<double> log_ccdf;
  for (const Vertex d : {4, 8, 16, 32, 64}) {
    std::int64_t at_least = 0;
    for (Vertex v = 0; v < n; ++v)
      if (g.degree(v) >= d) ++at_least;
    ASSERT_GT(at_least, 0) << "degree " << d;
    log_d.push_back(std::log(static_cast<double>(d)));
    log_ccdf.push_back(
        std::log(static_cast<double>(at_least) / static_cast<double>(n)));
  }
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  const double k = static_cast<double>(log_d.size());
  for (std::size_t i = 0; i < log_d.size(); ++i) {
    sx += log_d[i];
    sy += log_ccdf[i];
    sxx += log_d[i] * log_d[i];
    sxy += log_d[i] * log_ccdf[i];
  }
  const double slope = (k * sxy - sx * sy) / (k * sxx - sx * sx);
  EXPECT_LT(slope, -0.9) << "tail too flat for alpha=2.5";
  EXPECT_GT(slope, -2.3) << "tail too steep for alpha=2.5";
}

// Pinned output of the three web-scale families: the CSR digest and the
// caller's next Rng draw, as in Gen.RandomRegularPinned. A seed that
// repeats is not enough: a change to the endpoint draw, the dedup or the
// quadrant descent would still repeat but would change every campaign
// instance built from these specs.
TEST(GenScale, PowerlawPinned) {
  struct Pin {
    Vertex n;
    std::int64_t m;
    double alpha;
    std::uint64_t seed;
    const char* digest;
    std::uint64_t next;
  };
  for (const Pin& pin : {
           // The campaign size (powerlaw:n=65536 defaults) and the tail
           // exponents around it. At alpha = 1.5 the head is so heavy
           // that m = 4n is out of reach, and most draws are rejected.
           Pin{65536, 262144, 2.5, 1, "c3a595b7e2e28b3ba27c02fbe54989a9",
               0x135156f509a82badULL},
           Pin{65536, 1000, 1.5, 2, "8b9822879e3f0c1b8af256bd471cafbb",
               0xb245773b8007a454ULL},
           Pin{65536, 262144, 2.1, 3, "fd911adc797f7b218ffe130ac2fd7e64",
               0xe2a09e5c25738a6fULL},
           Pin{65536, 262144, 3.0, 4, "e63de008c69f81c5394aa24be2a8a0d3",
               0x419deb8d37a12a2cULL},
           // Near the rejection budget: a heavy head, and a graph with
           // 700 of its 780 possible edges.
           Pin{1000, 1000, 1.5, 5, "ac2919413d4d9d05af05b9e90d75ded6",
               0x6ad6b59919dfda21ULL},
           Pin{40, 700, 2.5, 6, "2a08fe499bfcb8eea6b3471560132279",
               0xb2cad9baa65284c2ULL},
           // Degenerate sizes: the only edge, and no edges at all.
           Pin{2, 1, 2.5, 7, "6fd677f8c426150e203837c9f2f7a2de",
               0xd6f1d349952c7996ULL},
           Pin{1, 0, 2.5, 8, "b8f037ee3df524bf516b05abed79728c",
               0xd22f5048870c16bfULL},
       }) {
    Rng rng(pin.seed);
    const Graph g = powerlaw(pin.n, pin.m, pin.alpha, rng);
    EXPECT_EQ(g.num_edges(), pin.m) << "n=" << pin.n;
    EXPECT_EQ(hash_graph(g).hex(), pin.digest)
        << "n=" << pin.n << " alpha=" << pin.alpha;
    EXPECT_EQ(rng.next(), pin.next)
        << "n=" << pin.n << " alpha=" << pin.alpha;
  }
}

// powerlaw with a full upper_bound per endpoint and a node-based hash
// set, as it was first written. Kept as the oracle for the guide table
// and the flat dedup set: both must make the same draws and accept the
// same edges in the same order. Empty when the rejection budget runs out.
std::optional<std::vector<Edge>> powerlaw_oracle(Vertex n, std::int64_t m,
                                                 double alpha, Rng& rng) {
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  for (Vertex v = 0; v < n; ++v)
    prefix[static_cast<std::size_t>(v) + 1] =
        prefix[static_cast<std::size_t>(v)] +
        std::pow(static_cast<double>(n) / static_cast<double>(v + 1),
                 1.0 / (alpha - 1.0));
  const auto draw = [&]() {
    const double r = rng.real() * prefix.back();
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), r);
    return std::max<Vertex>(
        0, static_cast<Vertex>(
               std::min<std::ptrdiff_t>(it - prefix.begin() - 1, n - 1)));
  };
  std::unordered_set<std::uint64_t> seen;
  std::vector<Edge> edges;
  for (std::int64_t tries = 0; static_cast<std::int64_t>(edges.size()) < m;
       ++tries) {
    if (tries >= 64 * m + 4096) return std::nullopt;
    const Vertex u = draw();
    const Vertex v = draw();
    if (u == v) continue;
    const Vertex lo = std::min(u, v);
    const Vertex hi = std::max(u, v);
    if (!seen.insert(static_cast<std::uint64_t>(lo) *
                         static_cast<std::uint64_t>(n) +
                     static_cast<std::uint64_t>(hi))
             .second)
      continue;
    edges.emplace_back(lo, hi);
  }
  return edges;
}

TEST(GenScale, PowerlawMatchesUpperBoundOracle) {
  // Weights from nearly uniform (alpha = 1e9: every prefix sum close to
  // an integer) to overflowing (alpha = 1.001: every weight past the
  // first is lost in the first one's rounding, or all are infinite),
  // sizes from 2 vertices up, and m from sparse to near the budget.
  int compared = 0;
  for (const double alpha : {1.001, 1.05, 1.5, 2.5, 4.0, 1e9})
    for (const Vertex n : {2, 3, 10, 100, 1000})
      for (const std::int64_t m :
           {std::int64_t{1}, std::int64_t{n},
            std::min<std::int64_t>(3000, std::int64_t{n} * (n - 1) / 3)})
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE("alpha=" + std::to_string(alpha) +
                       " n=" + std::to_string(n) + " m=" + std::to_string(m) +
                       " seed=" + std::to_string(seed));
          Rng want_rng(seed);
          const auto want = powerlaw_oracle(n, m, alpha, want_rng);
          Rng got_rng(seed);
          if (!want) {
            EXPECT_THROW((void)powerlaw(n, m, alpha, got_rng),
                         PreconditionError);
            continue;
          }
          const Graph got = powerlaw(n, m, alpha, got_rng);
          EXPECT_EQ(hash_graph(got).hex(),
                    hash_graph(Graph::from_edges(n, *want)).hex());
          EXPECT_EQ(got_rng.next(), want_rng.next());
          ++compared;
        }
  EXPECT_GT(compared, 100);
}

TEST(GenScale, PowerlawRejectionBudgetErrorIsPinned) {
  // The message after the source location is part of the contract.
  struct Case {
    Vertex n;
    std::int64_t m;
    double alpha;
    const char* what;
  };
  for (const Case& c : {
           // The skewed weights keep redrawing the same head pairs.
           Case{1000, 20000, 1.5,
                "could not place 20000 distinct edges on 1000 vertices "
                "with alpha = 1.500000"},
           // Weights overflow to infinity: every draw is the last vertex.
           Case{100, 10, 1.001,
                "could not place 10 distinct edges on 100 vertices with "
                "alpha = 1.001000"},
       }) {
    Rng rng(9);
    std::string what;
    try {
      (void)powerlaw(c.n, c.m, c.alpha, rng);
    } catch (const PreconditionError& e) {
      what = e.what();
    }
    const std::size_t dash = what.find(" — ");
    ASSERT_NE(dash, std::string::npos) << what;
    EXPECT_EQ(what.substr(0, what.find(" at ")),
              "REQUIRE failed: tries++ < attempt_cap");
    EXPECT_EQ(what.substr(dash),
              std::string(" — powerlaw rejection budget exhausted: ") +
                  c.what + " (lower m or alpha)");
  }
}

TEST(GenScale, RmatPinned) {
  struct Pin {
    Vertex scale;
    std::int64_t edgefactor;
    double a;
    double b;
    double c;
    std::uint64_t seed;
    const char* digest;
    std::uint64_t next;
  };
  for (const Pin& pin : {
           // The rmat:scale=14 campaign instance (Graph500 defaults).
           Pin{14, 16, 0.57, 0.19, 0.19, 1, "76c648c3c5cf55fd036e72f3b3a83b2a",
               0x8de82381a889ca1aULL},
           // Skewed quadrants, c = 0, and a + b + c = 1 (no d quadrant).
           Pin{12, 8, 0.75, 0.1, 0.1, 2, "b8c3c7eb5e22bca1d64454ccd1ba6615",
               0xdf56ac3878a567c8ULL},
           Pin{12, 8, 0.6, 0.4, 0.0, 3, "579746d81cd2d06baeb09a4e2b66eaad",
               0xb88fcefe14fbd170ULL},
           Pin{11, 8, 0.45, 0.15, 0.4, 4, "f5322ebddaeb57f2f049c08e7f9fabf0",
               0xe78f56fc4e86bcdaULL},
           Pin{10, 4, 0.25, 0.25, 0.25, 5, "e7779210f8b303fd4a23fb58a3c7c79e",
               0x680de2336d5e2350ULL},
       }) {
    Rng rng(pin.seed);
    const Graph g = rmat(pin.scale, pin.edgefactor, pin.a, pin.b, pin.c, rng);
    EXPECT_EQ(hash_graph(g).hex(), pin.digest) << "scale=" << pin.scale;
    EXPECT_EQ(rng.next(), pin.next) << "scale=" << pin.scale;
  }
}

TEST(GenScale, PrefAttachPinned) {
  struct Pin {
    Vertex n;
    Vertex k;
    std::uint64_t seed;
    const char* digest;
    std::uint64_t next;
  };
  for (const Pin& pin : {
           // The pref-attach:n=65536 campaign instance (k = 4 default).
           Pin{65536, 4, 1, "6c2bbbb283f3b1952002ae7ab1d5bc1c",
               0x481d3048e26e7fa5ULL},
           Pin{600, 5, 2, "e2e3f85a524025bf6fdbf5ae6bfe1ba7",
               0x1761f417937ddd67ULL},
           // k = 1: the first attachment has no stubs and picks uniformly.
           Pin{100, 1, 3, "6e2f14d712e2079457bd1d8ad315ebeb",
               0x392dc381eb35622cULL},
       }) {
    Rng rng(pin.seed);
    const Graph g = pref_attach(pin.n, pin.k, rng);
    EXPECT_EQ(hash_graph(g).hex(), pin.digest) << "n=" << pin.n;
    EXPECT_EQ(rng.next(), pin.next) << "n=" << pin.n;
  }
}

TEST(GenScale, PrefAttachExactEdgeCountAndMinDegree) {
  Rng rng(311);
  const Vertex n = 600;
  const Vertex k = 5;
  const Graph g = pref_attach(n, k, rng);
  EXPECT_EQ(g.num_edges(),
            static_cast<std::int64_t>(k) * (k - 1) / 2 +
                static_cast<std::int64_t>(n - k) * k);
  // Every arriving vertex brings exactly k distinct edges; seed-clique
  // vertices start at degree k - 1.
  for (Vertex v = 0; v < n; ++v) EXPECT_GE(g.degree(v), k - 1);
  // Degree-proportional attachment concentrates on early vertices.
  EXPECT_GT(g.max_degree(), 4 * k);
  Rng b(311);
  EXPECT_EQ(g.edges(), pref_attach(n, k, b).edges());
}

TEST(GenScale, CampaignJsonlBitIdenticalAcrossJobs) {
  // The new scenarios through the campaign runner: the JSONL stream for
  // jobs=8 must be byte-identical to jobs=1 — same contract the existing
  // families are held to, now covering rmat/powerlaw/pref-attach.
  CampaignSpec spec;
  spec.scenarios = {"rmat:scale=7,edgefactor=4", "powerlaw:n=96,m=240",
                    "pref-attach:n=96,k=3"};
  spec.algorithms = {"greedy", "degeneracy"};
  spec.seeds = 2;

  const auto run = [&](Executor* executor) {
    CampaignOptions options;
    options.executor = executor;
    std::vector<std::string> lines;
    run_campaign(spec, options,
                 [&](const std::string& line) { lines.push_back(line); });
    return lines;
  };
  const std::vector<std::string> serial = run(nullptr);
  ThreadPoolExecutor pool(8, /*grain=*/1);
  const std::vector<std::string> parallel = run(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "line " << i;
}

}  // namespace
}  // namespace scol

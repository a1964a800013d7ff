// Ruling forests (§5, [3]): separation, coverage, disjoint trees, depth
// bounds, round accounting — property-checked across random graphs.
#include <gtest/gtest.h>

#include "scol/coloring/ruling.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/bfs.h"

namespace scol {
namespace {

struct Params {
  Vertex n;
  std::int64_t m;
  Vertex alpha;
  double u_fraction;
  std::uint64_t seed;
};

class RulingForestProperty : public ::testing::TestWithParam<Params> {};

TEST_P(RulingForestProperty, AllInvariants) {
  const Params p = GetParam();
  Rng rng(p.seed);
  const Graph g = gnm(p.n, p.m, rng);
  std::vector<char> in_u(static_cast<std::size_t>(p.n), 0);
  Vertex u_count = 0;
  for (Vertex v = 0; v < p.n; ++v) {
    if (rng.chance(p.u_fraction)) {
      in_u[static_cast<std::size_t>(v)] = 1;
      ++u_count;
    }
  }
  RoundLedger ledger;
  Rounds rounds(ledger);
  const RulingForest rf = ruling_forest(g, in_u, p.alpha, rounds);

  // (1) Every U-vertex lies in some tree.
  for (Vertex v = 0; v < p.n; ++v) {
    if (in_u[static_cast<std::size_t>(v)]) {
      EXPECT_TRUE(rf.in_forest(v));
    }
  }

  // Roots are U-vertices.
  for (Vertex r : rf.roots)
    EXPECT_TRUE(in_u[static_cast<std::size_t>(r)]) << "root " << r;
  if (u_count > 0) {
    EXPECT_FALSE(rf.roots.empty());
  }

  // (2) Roots pairwise >= alpha apart.
  for (Vertex r : rf.roots) {
    const auto dist = bfs_distances(g, r);
    for (Vertex r2 : rf.roots) {
      if (r2 == r) continue;
      const Vertex d = dist[static_cast<std::size_t>(r2)];
      if (d >= 0) {
        EXPECT_GE(d, p.alpha) << r << " vs " << r2;
      }
    }
  }

  // (3) Depth bound; parent pointers consistent; trees vertex-disjoint by
  // construction (root[] is a function).
  EXPECT_LE(rf.max_depth, rf.depth_bound);
  for (Vertex v = 0; v < p.n; ++v) {
    if (!rf.in_forest(v)) continue;
    const Vertex par = rf.parent[static_cast<std::size_t>(v)];
    if (par < 0) {
      EXPECT_EQ(rf.root[static_cast<std::size_t>(v)], v);
      EXPECT_EQ(rf.depth[static_cast<std::size_t>(v)], 0);
    } else {
      EXPECT_TRUE(g.has_edge(v, par));
      EXPECT_EQ(rf.depth[static_cast<std::size_t>(v)],
                rf.depth[static_cast<std::size_t>(par)] + 1);
      EXPECT_EQ(rf.root[static_cast<std::size_t>(v)],
                rf.root[static_cast<std::size_t>(par)]);
    }
  }

  EXPECT_GT(ledger.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RulingForestProperty,
    ::testing::Values(Params{30, 60, 2, 0.5, 221}, Params{60, 90, 3, 0.3, 223},
                      Params{100, 150, 4, 0.8, 227},
                      Params{100, 300, 2, 0.2, 229},
                      Params{150, 200, 5, 1.0, 233},
                      Params{40, 0, 3, 0.5, 239},   // edgeless
                      Params{80, 120, 8, 0.6, 241},
                      Params{120, 180, 3, 0.05, 251}));

TEST(RulingForest, SingletonU) {
  const Graph g = grid(6, 6);
  std::vector<char> in_u(36, 0);
  in_u[14] = 1;
  RoundLedger ledger;
  Rounds rounds(ledger);
  const RulingForest rf = ruling_forest(g, in_u, 4, rounds);
  ASSERT_EQ(rf.roots.size(), 1u);
  EXPECT_EQ(rf.roots[0], 14);
}

TEST(RulingForest, EmptyU) {
  const Graph g = grid(4, 4);
  std::vector<char> in_u(16, 0);
  RoundLedger ledger;
  Rounds rounds(ledger);
  const RulingForest rf = ruling_forest(g, in_u, 3, rounds);
  EXPECT_TRUE(rf.roots.empty());
  for (Vertex v = 0; v < 16; ++v) EXPECT_FALSE(rf.in_forest(v));
}

TEST(RulingForest, PathDense) {
  // On a path with all vertices in U, survivors must be >= alpha apart and
  // still cover everything within the depth bound.
  const Graph p = grid(1, 50);
  std::vector<char> in_u(50, 1);
  RoundLedger ledger;
  Rounds rounds(ledger);
  const RulingForest rf = ruling_forest(p, in_u, 6, rounds);
  for (Vertex v = 0; v < 50; ++v) EXPECT_TRUE(rf.in_forest(v));
  for (std::size_t i = 0; i < rf.roots.size(); ++i)
    for (std::size_t j = i + 1; j < rf.roots.size(); ++j)
      EXPECT_GE(std::abs(rf.roots[i] - rf.roots[j]), 6);
}

// The bit elimination as it was before its BFS buffers were shared across
// bits: a fresh dist array and zero-candidate list per bit. Returns the
// surviving ruling set.
std::vector<Vertex> oracle_ruling_set(const Graph& g,
                                      const std::vector<char>& in_u,
                                      Vertex alpha) {
  const Vertex n = g.num_vertices();
  int bits = 1;
  while ((std::int64_t{1} << bits) < std::max<Vertex>(n, 2)) ++bits;
  std::vector<char> alive = in_u;
  for (int b = 0; b < bits; ++b) {
    std::vector<Vertex> zeros;
    bool has_one = false;
    for (Vertex v = 0; v < n; ++v) {
      if (!alive[static_cast<std::size_t>(v)]) continue;
      if ((v >> b) & 1)
        has_one = true;
      else
        zeros.push_back(v);
    }
    if (zeros.empty() || !has_one) continue;
    std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
    std::vector<Vertex> queue = zeros;
    for (Vertex z : zeros) dist[static_cast<std::size_t>(z)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      if (dist[static_cast<std::size_t>(x)] == alpha - 1) continue;
      for (Vertex y : g.neighbors(x)) {
        if (dist[static_cast<std::size_t>(y)] < 0) {
          dist[static_cast<std::size_t>(y)] =
              dist[static_cast<std::size_t>(x)] + 1;
          queue.push_back(y);
        }
      }
    }
    for (Vertex v = 0; v < n; ++v)
      if (alive[static_cast<std::size_t>(v)] && ((v >> b) & 1) &&
          dist[static_cast<std::size_t>(v)] >= 0)
        alive[static_cast<std::size_t>(v)] = 0;
  }
  std::vector<Vertex> roots;
  for (Vertex v = 0; v < n; ++v)
    if (alive[static_cast<std::size_t>(v)]) roots.push_back(v);
  return roots;
}

// The truncated BFS forest grown from `roots`, as ruling_forest builds it
// from its survivors.
RulingForest oracle_forest(const Graph& g, const std::vector<Vertex>& roots,
                           Vertex depth_bound) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  RulingForest f;
  f.root.assign(n, -1);
  f.parent.assign(n, -1);
  f.depth.assign(n, -1);
  std::vector<Vertex> queue = roots;
  for (Vertex r : roots) {
    f.root[static_cast<std::size_t>(r)] = r;
    f.depth[static_cast<std::size_t>(r)] = 0;
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    const auto xi = static_cast<std::size_t>(x);
    if (f.depth[xi] == depth_bound) continue;
    for (Vertex y : g.neighbors(x)) {
      const auto yi = static_cast<std::size_t>(y);
      if (f.root[yi] >= 0) continue;
      f.root[yi] = f.root[xi];
      f.parent[yi] = x;
      f.depth[yi] = f.depth[xi] + 1;
      f.max_depth = std::max(f.max_depth, f.depth[yi]);
      queue.push_back(y);
    }
  }
  return f;
}

// Small components (each far shorter than 64) on both sides of one long
// path or grid strip (longer than 1098), so a single call with a large
// alpha runs both the closed form and the per-bit BFS.
Graph short_pieces_around_strip(Rng& rng) {
  const auto piece = [&rng]() {
    const Vertex k = 1 + static_cast<Vertex>(rng.below(12));
    switch (rng.below(4)) {
      case 0: return complete(k);
      case 1: return k >= 3 ? cycle(k) : path(k);
      case 2: return path(k);
      default: return gnm(k, static_cast<std::int64_t>(rng.below(k)), rng);
    }
  };
  Graph g = piece();
  for (int i = static_cast<int>(rng.below(6)); i > 0; --i)
    g = disjoint_union(g, piece());
  g = disjoint_union(g, grid(1 + static_cast<Vertex>(rng.below(3)),
                             600 + static_cast<Vertex>(rng.below(600))));
  for (int i = static_cast<int>(rng.below(6)); i > 0; --i)
    g = disjoint_union(g, piece());
  return g;
}

TEST(RulingForest, SharedBfsBuffersMatchFreshPerBitOracle) {
  // Every bit's BFS resets only what the previous one visited, and
  // components shorter than alpha skip the bit loop for a closed form;
  // roots, forest and charged rounds must equal the fresh-buffer
  // full-graph computation. alpha 64 and 1098 exceed the diameter of most
  // small components but not of the long strips.
  Rng rng(31);
  const Vertex alphas[] = {1, 2, 3, 4, 5, 6, 7, 8, 64, 1098};
  for (int t = 0; t < 48; ++t) {
    const Vertex n = 20 + static_cast<Vertex>(rng.below(300));
    const Graph g =
        t % 4 == 0   ? grid(1 + static_cast<Vertex>(rng.below(4)), n)
        : t % 4 == 3 ? short_pieces_around_strip(rng)
                     : gnm(n, static_cast<std::int64_t>(rng.below(3 * n)), rng);
    const Vertex nv = g.num_vertices();
    std::vector<char> in_u(static_cast<std::size_t>(nv), 0);
    const double frac = 0.05 + 0.9 * rng.real();
    for (Vertex v = 0; v < nv; ++v)
      in_u[static_cast<std::size_t>(v)] = rng.chance(frac) ? 1 : 0;
    // The strip trials take a large alpha so both paths run in one call.
    const Vertex alpha = t % 4 == 3 ? alphas[8 + (t / 4) % 2]
                                    : alphas[rng.below(std::size(alphas))];
    RoundLedger ledger;
    Rounds rounds(ledger);
    const RulingForest rf = ruling_forest(g, in_u, alpha, rounds);
    const std::vector<Vertex> roots = oracle_ruling_set(g, in_u, alpha);
    EXPECT_EQ(rf.roots, roots) << "trial " << t << " alpha " << alpha;
    const RulingForest want = oracle_forest(g, roots, rf.depth_bound);
    EXPECT_EQ(rf.root, want.root) << "trial " << t;
    EXPECT_EQ(rf.parent, want.parent) << "trial " << t;
    EXPECT_EQ(rf.depth, want.depth) << "trial " << t;
    EXPECT_EQ(rf.max_depth, want.max_depth) << "trial " << t;
    int bits = 1;
    while ((std::int64_t{1} << bits) < std::max<Vertex>(nv, 2)) ++bits;
    EXPECT_EQ(rf.depth_bound, alpha * bits) << "trial " << t;
    EXPECT_EQ(ledger.total(),
              static_cast<std::int64_t>(alpha) * bits + rf.depth_bound)
        << "trial " << t;
  }
}

}  // namespace
}  // namespace scol

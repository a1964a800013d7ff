// Sequential baselines and exact solvers: greedy/degeneracy/DSATUR bounds,
// exact chromatic numbers of classic graphs, exact list-coloring incl. the
// intro's choosability examples (ch(K_{2,4}) = 3 > 2 = chi).
#include <gtest/gtest.h>

#include <numeric>

#include "scol/coloring/exact.h"
#include "scol/coloring/greedy.h"
#include "scol/coloring/sdr.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

TEST(Greedy, DegeneracyBound) {
  Rng rng(131);
  const Graph g = random_stacked_triangulation(60, rng);
  const Coloring c = degeneracy_coloring(g);
  expect_proper(g, c);
  EXPECT_LE(count_colors(c), 4);  // stacked triangulations are 3-degenerate
}

TEST(Greedy, GridUsesFewColors) {
  const Coloring c = degeneracy_coloring(grid(8, 8));
  expect_proper(grid(8, 8), c);
  EXPECT_LE(count_colors(c), 3);  // grid is 2-degenerate
}

TEST(Greedy, DsaturProper) {
  Rng rng(137);
  for (int t = 0; t < 5; ++t) {
    const Graph g = gnm(30, 90, rng);
    expect_proper(g, dsatur_coloring(g));
  }
}

TEST(Greedy, ListColoringRespectsLists) {
  Rng rng(139);
  const Graph g = random_forest_union(40, 2, rng);
  const ListAssignment lists = random_lists(40, 5, 12, rng);
  const auto c = degeneracy_list_coloring(g, lists);
  ASSERT_TRUE(c.has_value());  // degeneracy <= 2a-1 = 3 < 5
  expect_proper_list_coloring(g, *c, lists);
}

TEST(Exact, ChromaticNumbersOfClassics) {
  EXPECT_EQ(chromatic_number(complete(5)), 5);
  EXPECT_EQ(chromatic_number(cycle(7)), 3);
  EXPECT_EQ(chromatic_number(cycle(8)), 2);
  EXPECT_EQ(chromatic_number(petersen()), 3);
  EXPECT_EQ(chromatic_number(grotzsch()), 4);  // triangle-free yet chi = 4
  EXPECT_EQ(chromatic_number(complete_bipartite(4, 5)), 2);
  EXPECT_EQ(chromatic_number(grid(5, 5)), 2);
}

TEST(Exact, FourColorsForPlanar) {
  Rng rng(149);
  const Graph g = random_stacked_triangulation(25, rng);
  const auto c = find_k_coloring(g, 4);
  ASSERT_TRUE(c.has_value());
  expect_proper(g, *c);
  // Stacked triangulations contain K4, so 3 colors cannot suffice.
  EXPECT_FALSE(find_k_coloring(g, 3).has_value());
}

TEST(Exact, ListColoringAgreesWithUniform) {
  Rng rng(151);
  for (int t = 0; t < 10; ++t) {
    const Graph g = gnm(12, 24, rng);
    for (Vertex k = 2; k <= 4; ++k) {
      // One search with one order: identical lists reproduce the plain
      // k-coloring exactly, not only its existence.
      EXPECT_EQ(find_k_coloring(g, k),
                find_list_coloring(g, uniform_lists(12, static_cast<Color>(k))))
          << describe(g) << " k=" << k;
    }
  }
}

TEST(Exact, DeepSearchNeedsNoCallStack) {
  // One search-tree level per vertex: 10^5 levels would overflow a
  // recursive solver's default stack.
  const Vertex n = 100'000;
  const Graph g = path(n);
  const auto plain = find_k_coloring(g, 2);
  ASSERT_TRUE(plain.has_value());
  expect_proper(g, *plain);
  const ListAssignment lists = uniform_lists(n, 2);
  const auto listed = find_list_coloring(g, lists);
  ASSERT_TRUE(listed.has_value());
  expect_proper_list_coloring(g, *listed, lists);
}

TEST(Exact, OddCycleWithTwoListsFails) {
  const Graph c5 = cycle(5);
  EXPECT_FALSE(find_list_coloring(c5, uniform_lists(5, 2)).has_value());
  EXPECT_TRUE(find_list_coloring(c5, uniform_lists(5, 3)).has_value());
}

TEST(Exact, ChoosabilityOfK24ExceedsChi) {
  // The intro's "complete bipartite graphs have large choice number":
  // K_{2,4} is 2-chromatic but not 2-list-colorable.
  const Graph g = complete_bipartite(2, 4);
  EXPECT_EQ(chromatic_number(g), 2);
  const ListAssignment bad = ListAssignment::from_lists(
      {{0, 1}, {2, 3},                          // sides a1, a2
       {0, 2}, {0, 3}, {1, 2}, {1, 3}});        // all pairs
  EXPECT_FALSE(find_list_coloring(g, bad).has_value());
  // With 3-lists it always works (ch(K_{2,4}) = 3).
  EXPECT_TRUE(find_list_coloring(g, uniform_lists(6, 3)).has_value());
}

TEST(Exact, IdenticalListsOnCliqueFail) {
  // K_4 with identical 3-lists: no SDR, not colorable (Corollary 2.1's
  // obstruction).
  const Graph k4 = complete(4);
  EXPECT_FALSE(find_list_coloring(k4, uniform_lists(4, 3)).has_value());
  const ListAssignment distinct = ListAssignment::from_lists(
      {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 3}});
  EXPECT_TRUE(find_list_coloring(k4, distinct).has_value());
}

TEST(Sdr, MatchesExactOnCliques) {
  Rng rng(157);
  for (int t = 0; t < 20; ++t) {
    const Vertex k = 3 + static_cast<Vertex>(rng.below(3));
    const Graph g = complete(k);
    const ListAssignment lists =
        random_lists(k, static_cast<Color>(k - 1), static_cast<Color>(k + 2), rng);
    std::vector<Vertex> all(static_cast<std::size_t>(k));
    std::iota(all.begin(), all.end(), 0);
    const auto sdr = color_clique_by_sdr(g, all, lists);
    const auto exact = find_list_coloring(g, lists);
    EXPECT_EQ(sdr.has_value(), exact.has_value());
    if (sdr.has_value()) expect_proper_list_coloring(g, *sdr, lists);
  }
}

TEST(Exact, BudgetGuard) {
  // Any successful search needs >= n solver nodes, so a tiny budget on a
  // colorable graph must trip the guard.
  EXPECT_THROW(find_k_coloring(grid(6, 6), 3, /*node_budget=*/5),
               InternalError);
}

}  // namespace
}  // namespace scol

// Failure injection and boundary cases across the public API: malformed
// inputs, degenerate graphs, d near n, deep structures, mixed components,
// and the sharp Corollary 2.11 variant.
#include <gtest/gtest.h>

#include "scol/coloring/derived.h"
#include "scol/coloring/exact.h"
#include "scol/coloring/sparse.h"
#include "scol/flow/density.h"
#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/cliques.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

TEST(EdgeCases, DLargerThanN) {
  // d > n is fine: lists are large, everything is rich and happy.
  const Graph g = cycle(5);
  const SparseResult r = list_color_sparse(g, 12, uniform_lists(5, 12));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

TEST(EdgeCases, DEqualsNMinusOneOnClique) {
  // K_n with d = n-1: the K_{d+1} branch cannot fire (needs n >= d+1+1);
  // mad = n-1 = d, all vertices rich, component is a clique = Gallai tree
  // with no witnesses... but every vertex has degree d and lists of size
  // d = deg, so the clique IS the K_{d+1}... with d = n-1, K_{d+1} = K_n
  // exists! The clique branch fires.
  const SparseResult r = list_color_sparse(complete(6), 5, uniform_lists(6, 5));
  ASSERT_TRUE(r.clique.has_value());
  EXPECT_EQ(r.clique->size(), 6u);
}

TEST(EdgeCases, IsolatedVerticesEverywhere) {
  GraphBuilder b(12);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const SparseResult r = list_color_sparse(g, 3, uniform_lists(12, 3));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

TEST(EdgeCases, VeryLongPath) {
  // Depth stress: a path of 2000 vertices (BFS forests get deep relative
  // to the ruling parameter at small radii).
  const Graph p = path(2000);
  SparseOptions opts;
  opts.radius_override = 4;
  const SparseResult r =
      list_color_sparse(p, 3, uniform_lists(2000, 3), opts);
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(p, *r.coloring);
}

TEST(EdgeCases, StarGraph) {
  // Star: hub has huge degree (poor for d=3), leaves degree 1.
  const Graph s = star(50);
  const SparseResult r = list_color_sparse(s, 3, uniform_lists(51, 3));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(s, *r.coloring);
  EXPECT_GE(r.peels.size(), 2u);  // hub peels after the leaves
}

TEST(EdgeCases, MixedComponents) {
  Rng rng(769);
  Graph g = disjoint_union(disjoint_union(cycle(21), grid(8, 8)),
                           random_forest_union(60, 2, rng));
  const Vertex d = std::max<Vertex>(3, mad_ceiling(g));
  const SparseResult r =
      list_color_sparse(g, d, uniform_lists(g.num_vertices(), static_cast<Color>(d)));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

TEST(EdgeCases, ListsWithHugeColorValues) {
  const Graph g = cycle(8);
  const ListAssignment lists = ListAssignment::from_lists(
      std::vector<std::vector<Color>>(8, {1'000'000, 2'000'000, 2'000'001}));
  const SparseResult r = list_color_sparse(g, 3, lists);
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper_list_coloring(g, *r.coloring, lists);
}

// count_colors counts distinct colored values whatever their range: small
// palettes, colors far above n, and negative values other than kUncolored.
TEST(EdgeCases, CountColorsAcrossColorRanges) {
  EXPECT_EQ(count_colors({}), 0);
  EXPECT_EQ(count_colors({kUncolored, kUncolored}), 0);
  EXPECT_EQ(count_colors({0, 2, kUncolored, 2, 0, 5}), 3);
  EXPECT_EQ(count_colors({2'000'000'000, 7, 2'000'000'000, kUncolored}), 2);
  EXPECT_EQ(count_colors({-5, 0, -5, kUncolored, 3}), 3);
  EXPECT_EQ(count_colors({-5, kUncolored, -3, -5}), 2);
}

TEST(EdgeCases, HeterogeneousListSizes) {
  // Some vertices get many more colors than d; must still respect lists.
  Rng rng(773);
  const Graph g = grid(9, 9);
  std::vector<std::vector<Color>> raw = to_lists(uniform_lists(81, 4));
  for (Vertex v = 0; v < 81; v += 3)
    raw[static_cast<std::size_t>(v)] = {0, 1, 2, 3, 4, 5, 6, 7};
  const ListAssignment lists = ListAssignment::from_lists(raw);
  const SparseResult r = list_color_sparse(g, 4, lists);
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper_list_coloring(g, *r.coloring, lists);
}

TEST(Cor211Sharp, TightnessPredicate) {
  // 24g+1 square with (5+root) even: g=1 -> 25, root 5, (5+5)/2=5... H-1
  // integral: true. g=2 -> 49, root 7, 6 integral: true. g=3 -> 73 not a
  // square: false.
  EXPECT_TRUE(heawood_bound_is_tight(1));
  EXPECT_TRUE(heawood_bound_is_tight(2));
  EXPECT_FALSE(heawood_bound_is_tight(3));
  EXPECT_FALSE(heawood_bound_is_tight(4));
  EXPECT_TRUE(heawood_bound_is_tight(5));  // 121 = 11^2, (5+11)/2 = 8
}

TEST(Cor211Sharp, TorusGetsSixListColors) {
  // Euler genus 2 (torus): H(2) = 7, tight => 6-list-colorable unless K_7.
  const Graph g = cycle_power(32, 3);  // 6-regular toroidal triangulation
  const ListAssignment lists = uniform_lists(32, 6);
  const ColoringReport r = genus_list_coloring_sharp(g, 2, lists);
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper_list_coloring(g, *r.coloring, lists);
  EXPECT_LE(count_colors(*r.coloring), 6);
}

TEST(Cor211Sharp, K7IsTheException) {
  // K_7 embeds on the torus and is the unique obstruction: the sharp
  // variant surfaces it as a clique certificate.
  const ColoringReport r =
      genus_list_coloring_sharp(complete(7), 2, uniform_lists(7, 6));
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_EQ(r.certificate_kind, "clique");
  EXPECT_EQ(r.certificate->size(), 7u);
}

TEST(Cor211Sharp, RejectsNonTightGenus) {
  EXPECT_THROW(
      genus_list_coloring_sharp(cycle(9), 3, uniform_lists(9, 6)),
      PreconditionError);
}

TEST(EdgeCases, PeelCapTriggers) {
  // An adversarial max_peels cap must fail loudly, not loop.
  const Graph s = star(30);
  SparseOptions opts;
  opts.max_peels = 1;
  EXPECT_THROW(list_color_sparse(s, 3, uniform_lists(31, 3), opts),
               PreconditionError);
}

TEST(EdgeCases, CliqueSearchAtScale) {
  // Planted K_7 in a larger sparse graph with d = 6.
  Rng rng(787);
  Graph base = random_forest_union(400, 3, rng);
  std::vector<Edge> edges = base.edges();
  for (Vertex i = 100; i < 107; ++i)
    for (Vertex j = i + 1; j < 107; ++j)
      if (!base.has_edge(i, j)) edges.emplace_back(i, j);
  const Graph g = Graph::from_edges(400, edges);
  const SparseResult r = list_color_sparse(g, 6, uniform_lists(400, 6));
  ASSERT_TRUE(r.clique.has_value());
  EXPECT_EQ(r.clique->size(), 7u);
  EXPECT_TRUE(is_clique(g, *r.clique));
}

TEST(EdgeCases, TwoVertexComponentsWithTightLists) {
  // Single edges: both endpoints degree 1 <= d-1, trivially happy.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const SparseResult r = list_color_sparse(g, 3, uniform_lists(6, 3));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

}  // namespace
}  // namespace scol

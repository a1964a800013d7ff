// Constructive Theorem 1.1 (Borodin / Erdős–Rubin–Taylor): valid colorings
// on random non-Gallai graphs with tight degree lists, surplus-vertex
// cases, block-tree peeling, and the classical negative cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "scol/coloring/ert.h"
#include "scol/coloring/exact.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/bfs.h"
#include "scol/graph/gallai.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

void check(const Graph& g, const AvailableLists& avail, const Coloring& c) {
  expect_proper(g, c);
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_TRUE(list_contains(avail[static_cast<std::size_t>(v)],
                              c[static_cast<std::size_t>(v)]))
        << "vertex " << v;
}

TEST(Ert, EvenCycleTightLists) {
  const Graph c6 = cycle(6);
  AvailableLists avail(6, {0, 1});
  check(c6, avail, degree_choosable_coloring(c6, avail));
}

TEST(Ert, OddCycleTightListsRejected) {
  const Graph c5 = cycle(5);
  AvailableLists avail(5, {0, 1});
  EXPECT_THROW(degree_choosable_coloring(c5, avail), PreconditionError);
}

TEST(Ert, CliqueTightIdenticalListsRejected) {
  const Graph k4 = complete(4);
  AvailableLists avail(4, {0, 1, 2});
  EXPECT_THROW(degree_choosable_coloring(k4, avail), PreconditionError);
}

TEST(Ert, CliqueWithDifferentListsOutsideTheoremScope) {
  // K4 with tight, not-all-identical lists IS colorable (the exact solver
  // confirms), but K4 is a Gallai tree, so Theorem 1.1's hypothesis fails
  // and the constructive routine correctly refuses — the main algorithm
  // never reaches this case (happiness guarantees surplus or non-Gallai).
  const Graph k4 = complete(4);
  AvailableLists avail{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 3}};
  EXPECT_THROW(degree_choosable_coloring(k4, avail), PreconditionError);
  const ListAssignment as_lists =
      ListAssignment::from_lists({avail[0], avail[1], avail[2], avail[3]});
  EXPECT_TRUE(find_list_coloring(k4, as_lists).has_value());
}

TEST(Ert, SurplusVertexOnGallaiTree) {
  // A Gallai tree is fine when one vertex has surplus.
  Rng rng(263);
  for (int t = 0; t < 20; ++t) {
    const Graph g = random_gallai_tree(5, 4, rng);
    AvailableLists avail(static_cast<std::size_t>(g.num_vertices()));
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      for (Color c = 0; c < g.degree(v); ++c)
        avail[static_cast<std::size_t>(v)].push_back(c);
    }
    // Give vertex 0 one extra color.
    avail[0].push_back(static_cast<Color>(g.max_degree() + 1));
    check(g, avail, degree_choosable_coloring(g, avail));
  }
}

TEST(Ert, K4MinusEdgeTightLists) {
  // C4 plus a chord: 2-connected, not clique, not cycle => colorable even
  // with identical tight lists.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  AvailableLists avail{{0, 1, 2}, {0, 1}, {0, 1, 2}, {0, 1}};
  check(g, avail, degree_choosable_coloring(g, avail));
}

TEST(Ert, CompleteBipartiteTight) {
  // K_{3,3}: 3-regular, 2-connected, non-complete, not a cycle.
  const Graph g = complete_bipartite(3, 3);
  AvailableLists avail(6, {0, 1, 2});
  check(g, avail, degree_choosable_coloring(g, avail));
}

TEST(Ert, GridTight) {
  const Graph g = grid(4, 5);
  AvailableLists avail(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (Color c = 0; c < g.degree(v); ++c)
      avail[static_cast<std::size_t>(v)].push_back(c);
  check(g, avail, degree_choosable_coloring(g, avail));
}

struct ErtParams {
  Vertex n;
  std::uint64_t seed;
  bool identical_lists;
};

class ErtRandomProperty : public ::testing::TestWithParam<ErtParams> {};

TEST_P(ErtRandomProperty, RandomNonGallaiTightLists) {
  const ErtParams p = GetParam();
  Rng rng(p.seed);
  for (int t = 0; t < 15; ++t) {
    const Graph g = random_non_gallai(p.n, rng);
    ASSERT_FALSE(is_gallai_tree(g));
    AvailableLists avail(static_cast<std::size_t>(g.num_vertices()));
    const ListAssignment pool =
        p.identical_lists
            ? uniform_lists(g.num_vertices(), g.max_degree() + 1)
            : random_lists(g.num_vertices(),
                           static_cast<Color>(g.max_degree() + 1),
                           static_cast<Color>(2 * g.max_degree() + 3), rng);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto& l = pool.of(v);
      avail[static_cast<std::size_t>(v)] =
          std::vector<Color>(l.begin(), l.begin() + g.degree(v));
    }
    check(g, avail, degree_choosable_coloring(g, avail));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ErtRandomProperty,
                         ::testing::Values(ErtParams{8, 271, true},
                                           ErtParams{8, 277, false},
                                           ErtParams{12, 281, true},
                                           ErtParams{12, 283, false},
                                           ErtParams{20, 293, false},
                                           ErtParams{30, 307, false},
                                           ErtParams{30, 311, true}));

TEST(Ert, CrossCheckAgainstExactSolver) {
  // On small graphs, whenever ERT's preconditions hold the exact solver
  // must also find a coloring (and ours must be one).
  Rng rng(313);
  for (int t = 0; t < 15; ++t) {
    const Graph g = random_non_gallai(9, rng);
    AvailableLists avail(static_cast<std::size_t>(g.num_vertices()));
    const ListAssignment pool = random_lists(
        g.num_vertices(), static_cast<Color>(g.max_degree() + 1),
        static_cast<Color>(g.max_degree() + 3), rng);
    ListAssignment trimmed;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto l = pool.of(v);
      avail[static_cast<std::size_t>(v)] =
          std::vector<Color>(l.begin(), l.begin() + g.degree(v));
      trimmed.append(avail[static_cast<std::size_t>(v)]);
    }
    const Coloring ours = degree_choosable_coloring(g, avail);
    check(g, avail, ours);
    EXPECT_TRUE(find_list_coloring(g, trimmed).has_value());
  }
}

TEST(Ert, DisconnectedRejected) {
  const Graph g = disjoint_union(cycle(4), cycle(4));
  AvailableLists avail(8, {0, 1});
  EXPECT_THROW(degree_choosable_coloring(g, avail), PreconditionError);
}

TEST(Ert, ListTooSmallRejected) {
  const Graph k3 = complete(3);
  AvailableLists avail{{0}, {0, 1}, {0, 1}};
  EXPECT_THROW(degree_choosable_coloring(k3, avail), PreconditionError);
}

// Case 1 as the proof states it, on a whole graph: take the smallest
// surplus vertex w, then color greedily by (distance from w desc, id asc).
Coloring textbook_case1(const Graph& g, const AvailableLists& avail) {
  const Vertex n = g.num_vertices();
  Vertex w = 0;
  while (static_cast<Vertex>(avail[static_cast<std::size_t>(w)].size()) <=
         g.degree(w))
    ++w;
  const std::vector<Vertex> dist = bfs_distances(g, w);
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    const Vertex da = dist[static_cast<std::size_t>(a)];
    const Vertex db = dist[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });
  Coloring c = empty_coloring(n);
  for (Vertex v : order) {
    for (Color x : avail[static_cast<std::size_t>(v)]) {
      bool used = false;
      for (Vertex u : g.neighbors(v))
        used |= c[static_cast<std::size_t>(u)] == x;
      if (!used) {
        c[static_cast<std::size_t>(v)] = x;
        break;
      }
    }
  }
  return c;
}

// A connected piece of `host`: the first `size` vertices of a BFS from a
// random start, ascending.
std::vector<Vertex> random_piece(const Graph& host, Vertex size, Rng& rng) {
  const Vertex start = static_cast<Vertex>(
      rng.below(static_cast<std::uint64_t>(host.num_vertices())));
  std::vector<Vertex> piece = ball(host, start, host.num_vertices());
  piece.resize(std::min(piece.size(), static_cast<std::size_t>(size)));
  std::sort(piece.begin(), piece.end());
  return piece;
}

// A random sorted list of `size` colors out of [0, palette).
std::vector<Color> random_list(Vertex size, Color palette, Rng& rng) {
  std::vector<Color> all(static_cast<std::size_t>(palette));
  std::iota(all.begin(), all.end(), 0);
  rng.shuffle(all);
  all.resize(static_cast<std::size_t>(size));
  std::sort(all.begin(), all.end());
  return all;
}

enum class Shape { kSurplus, kTight, kSingleton };

TEST(BallColorer, MatchesDegreeChoosableOnInducedPiece) {
  Rng rng(331);
  const Graph hosts[] = {random_regular(80, 4, rng), grid(9, 9),
                         gnm(70, 150, rng), torus_grid(6, 8)};
  int tight_colored = 0, surplus_colored = 0;
  for (const Graph& host : hosts) {
    // One kernel for every piece of the host: overlapping pieces in a row
    // catch scratch that is not reset between pieces.
    BallColorer kernel(host);
    const Color palette = static_cast<Color>(host.max_degree() + 4);
    for (int t = 0; t < 60; ++t) {
      const Shape shape = static_cast<Shape>(t % 3);
      const Vertex size =
          shape == Shape::kSingleton
              ? 1
              : static_cast<Vertex>(2 + rng.below(static_cast<std::uint64_t>(
                                            host.num_vertices() - 1)));
      const std::vector<Vertex> piece = random_piece(host, size, rng);
      const InducedSubgraph sub = induce(host, piece);
      AvailableLists avail(piece.size());
      const std::size_t extra_at = rng.below(piece.size());
      for (std::size_t i = 0; i < piece.size(); ++i) {
        Vertex len = sub.graph.degree(static_cast<Vertex>(i));
        if (shape == Shape::kSingleton)
          len = 1 + static_cast<Vertex>(rng.below(3));
        if (shape == Shape::kSurplus && (i == extra_at || rng.chance(0.3)))
          ++len;
        avail[i] = random_list(len, palette, rng);
      }
      std::optional<Coloring> expected;
      try {
        expected = degree_choosable_coloring(sub.graph, avail);
      } catch (const PreconditionError&) {
      }
      kernel.begin(piece);
      for (std::size_t i = 0; i < piece.size(); ++i) {
        EXPECT_EQ(kernel.degree(i), sub.graph.degree(static_cast<Vertex>(i)));
        for (Color c : avail[i]) kernel.push_color(c);
        kernel.end_list();
      }
      if (!expected) {
        EXPECT_THROW(kernel.color(), PreconditionError);
        continue;
      }
      const std::span<const Color> got = kernel.color();
      EXPECT_EQ(Coloring(got.begin(), got.end()), *expected);
      check(sub.graph, avail, *expected);
      if (shape == Shape::kSurplus) {
        EXPECT_EQ(*expected, textbook_case1(sub.graph, avail));
        ++surplus_colored;
      }
      if (shape == Shape::kTight) ++tight_colored;
    }
  }
  // Every shape is exercised, the block-tree path included.
  EXPECT_GT(tight_colored, 10);
  EXPECT_EQ(surplus_colored, 80);
}

TEST(BallColorer, RejectsBadPiecesAndLists) {
  const Graph host = grid(3, 3);
  BallColorer kernel(host);
  EXPECT_THROW(kernel.begin(std::vector<Vertex>{1, 0}), PreconditionError);
  EXPECT_THROW(kernel.begin(std::vector<Vertex>{0, 9}), PreconditionError);
  // Vertices 0 and 8 are corners: not connected inside the piece.
  kernel.begin(std::vector<Vertex>{0, 8});
  for (int i = 0; i < 2; ++i) {
    kernel.push_color(0);
    kernel.end_list();
  }
  EXPECT_THROW(kernel.color(), PreconditionError);
  kernel.begin(std::vector<Vertex>{0, 1});
  kernel.push_color(1);
  kernel.push_color(0);
  EXPECT_THROW(kernel.end_list(), PreconditionError);
  kernel.begin(std::vector<Vertex>{0, 1});
  kernel.end_list();
  kernel.push_color(0);
  kernel.end_list();
  EXPECT_THROW(kernel.color(), PreconditionError);
}

// The ListAssignment overload reads only each list's first deg(v) + 1
// colors; on every shape (surplus, tight, too short, long, disconnected,
// Gallai) it must answer exactly as the full lists do, errors included.
TEST(Ert, ListPrefixMatchesTheFullLists) {
  Rng rng(907);
  const Graph graphs[] = {random_non_gallai(40, rng), grid(6, 6),
                          random_regular(60, 4, rng), cycle(6), cycle(5),
                          complete(5), disjoint_union(grid(3, 3), path(4))};
  int colored = 0, refused = 0;
  for (const Graph& g : graphs) {
    const Vertex n = g.num_vertices();
    const Color dmax = static_cast<Color>(g.max_degree());
    std::vector<ListAssignment> shapes;
    shapes.push_back(uniform_lists(n, dmax + 1));
    shapes.push_back(uniform_lists(n, dmax + 6));
    shapes.push_back(random_lists(n, dmax + 1, 2 * dmax + 4, rng));
    shapes.push_back(random_lists(n, dmax + 3, 3 * dmax + 6, rng));
    for (const Vertex slack : {0, 1, -1}) {  // tight, one surplus, short
      std::vector<std::vector<Color>> lists;
      for (Vertex v = 0; v < n; ++v) {
        const Vertex len =
            std::max<Vertex>(1, g.degree(v) + (v == n / 2 ? slack : 0));
        lists.push_back(random_list(len, dmax + 3, rng));
      }
      shapes.push_back(ListAssignment::from_lists(lists));
    }
    for (const ListAssignment& lists : shapes) {
      std::optional<Coloring> expected;
      std::string expected_error;
      try {
        expected = degree_choosable_coloring(g, to_lists(lists));
      } catch (const PreconditionError& e) {
        expected_error = e.what();
      }
      if (!expected) {
        try {
          degree_choosable_coloring(g, lists);
          ADD_FAILURE() << "expected: " << expected_error;
        } catch (const PreconditionError& e) {
          EXPECT_EQ(std::string(e.what()), expected_error);
        }
        ++refused;
        continue;
      }
      EXPECT_EQ(degree_choosable_coloring(g, lists), *expected);
      ++colored;
    }
  }
  EXPECT_GT(colored, 30);
  EXPECT_GT(refused, 10);
}

}  // namespace
}  // namespace scol

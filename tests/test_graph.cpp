// Graph core: construction, CSR invariants, BFS, components, induce,
// permute, degeneracy, cliques, girth, isomorphism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "proptest.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/bfs.h"
#include "scol/graph/cliques.h"
#include "scol/graph/components.h"
#include "scol/graph/girth.h"
#include "scol/graph/graph.h"
#include "scol/graph/iso.h"

namespace scol {
namespace {

TEST(Graph, BuildAndDegrees) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 0}}), PreconditionError);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), PreconditionError);
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), PreconditionError);
}

TEST(Graph, BuilderDeduplicates) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Graph, NeighborsSorted) {
  Rng rng(7);
  const Graph g = gnm(40, 120, rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  }
}

TEST(Graph, EdgesRoundTrip) {
  Rng rng(9);
  const Graph g = gnm(30, 60, rng);
  const Graph h = Graph::from_edges(30, g.edges());
  EXPECT_EQ(g.edges(), h.edges());
}

TEST(Bfs, DistancesOnPath) {
  const Graph p = path(5);
  const auto d = bfs_distances(p, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[static_cast<std::size_t>(v)], v);
}

TEST(Bfs, BallContents) {
  const Graph p = path(7);
  const auto b = ball(p, 3, 2);
  std::vector<Vertex> sorted(b.begin(), b.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Vertex>{1, 2, 3, 4, 5}));
}

TEST(Bfs, BallWithinMask) {
  const Graph p = path(7);
  std::vector<char> mask(7, 1);
  mask[2] = 0;  // cut the path
  const auto b = ball_within(p, mask, 3, 5);
  std::vector<Vertex> sorted(b.begin(), b.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Vertex>{3, 4, 5, 6}));
  EXPECT_TRUE(ball_within(p, mask, 2, 3).empty());  // center masked out
}

TEST(Bfs, MultiSource) {
  const Graph p = path(9);
  const auto d = bfs_distances(p, std::vector<Vertex>{0, 8});
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(d[7], 1);
}

TEST(Components, CountsAndGroups) {
  const Graph g = disjoint_union(cycle(3), path(4));
  const Components c = connected_components(g);
  EXPECT_EQ(c.count, 2);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle(5)));
}

TEST(Components, ConnectedWithout) {
  const Graph p = path(5);
  std::vector<char> removed(5, 0);
  removed[2] = 1;
  EXPECT_FALSE(is_connected_without(p, removed));
  const Graph c = cycle(5);
  std::vector<char> removed2(5, 0);
  removed2[2] = 1;
  EXPECT_TRUE(is_connected_without(c, removed2));
}

TEST(Induce, MapsAreConsistent) {
  Rng rng(3);
  const Graph g = gnm(25, 50, rng);
  std::vector<char> keep(25, 0);
  for (Vertex v = 0; v < 25; v += 2) keep[static_cast<std::size_t>(v)] = 1;
  const InducedSubgraph s = induce(g, keep);
  for (Vertex x = 0; x < s.graph.num_vertices(); ++x) {
    EXPECT_EQ(s.to_induced[static_cast<std::size_t>(
                  s.to_original[static_cast<std::size_t>(x)])],
              x);
  }
  // Edge preservation.
  for (const auto& [a, b] : s.graph.edges())
    EXPECT_TRUE(g.has_edge(s.to_original[static_cast<std::size_t>(a)],
                           s.to_original[static_cast<std::size_t>(b)]));
}

TEST(Permute, PreservesStructure) {
  Rng rng(5);
  const Graph g = gnm(20, 40, rng);
  std::vector<Vertex> perm(20);
  for (Vertex v = 0; v < 20; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  const Graph h = permute(g, perm);
  EXPECT_EQ(g.num_edges(), h.num_edges());
  for (const auto& [a, b] : g.edges())
    EXPECT_TRUE(h.has_edge(perm[static_cast<std::size_t>(a)],
                           perm[static_cast<std::size_t>(b)]));
}

TEST(Degeneracy, PathIsOneDegenerate) {
  EXPECT_EQ(degeneracy_order(path(10)).degeneracy, 1);
  EXPECT_EQ(degeneracy_order(cycle(10)).degeneracy, 2);
  EXPECT_EQ(degeneracy_order(complete(6)).degeneracy, 5);
}

TEST(Degeneracy, OrderIsValid) {
  Rng rng(11);
  const Graph g = gnm(50, 120, rng);
  const DegeneracyOrder d = degeneracy_order(g);
  // Every vertex has at most `degeneracy` neighbors later in the order.
  for (Vertex v = 0; v < 50; ++v) {
    Vertex later = 0;
    for (Vertex w : g.neighbors(v))
      if (d.position[static_cast<std::size_t>(w)] >
          d.position[static_cast<std::size_t>(v)])
        ++later;
    EXPECT_LE(later, d.degeneracy);
  }
}

TEST(Cliques, FindsPlantedClique) {
  Rng rng(13);
  Graph sparse = random_forest_union(40, 2, rng);
  // Plant a K_5 on vertices 0..4.
  std::vector<Edge> edges = sparse.edges();
  for (Vertex i = 0; i < 5; ++i)
    for (Vertex j = i + 1; j < 5; ++j)
      if (!sparse.has_edge(i, j)) edges.emplace_back(i, j);
  const Graph g = Graph::from_edges(40, edges);
  const auto k5 = find_clique(g, 5);
  ASSERT_TRUE(k5.has_value());
  EXPECT_TRUE(is_clique(g, *k5));
  EXPECT_EQ(k5->size(), 5u);
}

TEST(Cliques, NoCliqueInSparse) {
  Rng rng(17);
  const Graph g = random_forest_union(60, 2, rng);
  EXPECT_FALSE(find_clique(g, 5).has_value());  // arboricity 2 => no K_5
}

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth(cycle(7)), 7);
  EXPECT_EQ(girth(complete(4)), 3);
  EXPECT_EQ(girth(path(9)), -1);
  EXPECT_EQ(girth(petersen()), 5);
  EXPECT_EQ(girth(heawood()), 6);
  EXPECT_EQ(girth(mcgee()), 7);
  EXPECT_EQ(girth(grotzsch()), 4);
}

// Naive girth: for each edge (u, v), the shortest u-v path that avoids
// the edge closes the shortest cycle through it. -1 when acyclic or when
// that cycle is longer than `limit` (limit < 0: no bound).
Vertex brute_force_girth(const Graph& g, Vertex limit) {
  Vertex best = -1;
  for (const auto& [u, v] : g.edges()) {
    std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
    std::vector<Vertex> queue{u};
    dist[static_cast<std::size_t>(u)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      for (const Vertex y : g.neighbors(x)) {
        if (x == u && y == v) continue;  // the avoided edge
        Vertex& dy = dist[static_cast<std::size_t>(y)];
        if (dy >= 0) continue;
        dy = dist[static_cast<std::size_t>(x)] + 1;
        queue.push_back(y);
      }
    }
    const Vertex d = dist[static_cast<std::size_t>(v)];
    if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
  }
  return limit >= 0 && best > limit ? -1 : best;
}

TEST(Girth, TruncatedMatchesBruteForce) {
  std::vector<std::pair<std::string, Graph>> graphs = {
      {"petersen", petersen()},
      {"heawood", heawood()},
      {"mcgee", mcgee()},
      {"grotzsch", grotzsch()},
      {"cycle9", cycle(9)},
      {"hex 4x5", hex_patch(4, 5)},
      // Forests.
      {"path", path(12)},
      {"star", star(7)},
      {"two trees", disjoint_union(path(6), star(4))},
      // The only triangle sits in the last component, after components
      // whose roots find longer cycles first.
      {"triangle last",
       disjoint_union(disjoint_union(hex_patch(3, 3), cycle(5)), cycle(3))},
      // Root 0 lies on a 4-cycle; the triangle is only reached from later
      // roots, down a path from vertex 3.
      {"4-cycle before triangle",
       Graph::from_edges(8, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4},
                             {4, 5}, {5, 6}, {6, 7}, {5, 7}})},
  };
  Rng rng(8101);
  for (int i = 0; i < 40; ++i) {
    const proptest::Sample a = proptest::random_graph(rng);
    graphs.emplace_back(a.description, a.graph);
    if (i % 4 == 0) {
      const proptest::Sample b = proptest::random_graph(rng);
      graphs.emplace_back(a.description + " + " + b.description,
                          disjoint_union(a.graph, b.graph));
    }
  }
  for (const auto& [name, g] : graphs)
    for (const Vertex limit : {-1, 3, 4, 5, 6, 8})
      EXPECT_EQ(girth(g, limit), brute_force_girth(g, limit))
          << name << " limit=" << limit;
}

TEST(Girth, TriangleFree) {
  EXPECT_TRUE(triangle_free(cycle(5)));
  EXPECT_TRUE(triangle_free(grotzsch()));
  EXPECT_FALSE(triangle_free(complete(3)));
}

TEST(Iso, CycleVsPath) {
  EXPECT_TRUE(is_isomorphic(cycle(6), cycle(6)));
  EXPECT_FALSE(is_isomorphic(cycle(6), path(6)));
}

TEST(Iso, PermutedGraphIsIsomorphic) {
  Rng rng(23);
  const Graph g = gnm(14, 30, rng);
  std::vector<Vertex> perm(14);
  for (Vertex v = 0; v < 14; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  EXPECT_TRUE(is_isomorphic(g, permute(g, perm)));
}

TEST(Iso, RootedDistinguishesCenter) {
  // A path rooted at its end vs rooted at its center.
  const Graph p = path(5);
  EXPECT_TRUE(is_rooted_isomorphic(p, 0, p, 4));
  EXPECT_FALSE(is_rooted_isomorphic(p, 0, p, 2));
}

TEST(Iso, DifferentDegreesRejected) {
  EXPECT_FALSE(is_isomorphic(star(3), path(4)));
}

}  // namespace
}  // namespace scol

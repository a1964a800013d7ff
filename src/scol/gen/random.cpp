#include "scol/gen/random.h"

#include <algorithm>
#include <set>

#include "scol/graph/gallai.h"

namespace scol {

Graph gnm(Vertex n, std::int64_t m, Rng& rng) {
  SCOL_REQUIRE(n >= 0);
  const std::int64_t max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
  SCOL_REQUIRE(m >= 0 && m <= max_m, + "too many edges");
  std::set<Edge> edges;
  while (static_cast<std::int64_t>(edges.size()) < m) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    edges.insert({std::min(u, v), std::max(u, v)});
  }
  return Graph::from_edges(n, {edges.begin(), edges.end()});
}

Graph random_tree(Vertex n, Rng& rng) {
  SCOL_REQUIRE(n >= 1);
  if (n == 1) return Graph::from_edges(1, {});
  if (n == 2) return Graph::from_edges(2, {{0, 1}});
  // Prüfer decoding.
  std::vector<Vertex> prufer(static_cast<std::size_t>(n - 2));
  for (auto& x : prufer)
    x = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
  std::vector<Vertex> deg(static_cast<std::size_t>(n), 1);
  for (Vertex x : prufer) ++deg[static_cast<std::size_t>(x)];
  std::set<Vertex> leaves;
  for (Vertex v = 0; v < n; ++v)
    if (deg[static_cast<std::size_t>(v)] == 1) leaves.insert(v);
  std::vector<Edge> edges;
  for (Vertex x : prufer) {
    const Vertex leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    edges.emplace_back(std::min(leaf, x), std::max(leaf, x));
    if (--deg[static_cast<std::size_t>(x)] == 1) leaves.insert(x);
  }
  const Vertex u = *leaves.begin();
  const Vertex v = *std::next(leaves.begin());
  edges.emplace_back(std::min(u, v), std::max(u, v));
  return Graph::from_edges(n, edges);
}

Graph random_forest_union(Vertex n, Vertex a, Rng& rng) {
  SCOL_REQUIRE(n >= 2 && a >= 1);
  std::set<Edge> edges;
  for (Vertex i = 0; i < a; ++i) {
    const Graph t = random_tree(n, rng);
    for (const auto& e : t.edges()) edges.insert(e);
  }
  return Graph::from_edges(n, {edges.begin(), edges.end()});
}

Graph random_regular(Vertex n, Vertex d, Rng& rng) {
  SCOL_REQUIRE(n > d && d >= 1);
  SCOL_REQUIRE((static_cast<std::int64_t>(n) * d) % 2 == 0,
               + "n*d must be even");
  // Deterministic d-regular circulant base, randomized by double-edge
  // swaps (which preserve degrees and simplicity). Unlike the plain
  // configuration model this never rejects, even for larger d.
  std::vector<Edge> e;
  for (Vertex s = 1; s <= d / 2; ++s)
    for (Vertex i = 0; i < n; ++i) {
      const Vertex j = (i + s) % n;
      e.emplace_back(std::min(i, j), std::max(i, j));
    }
  if (d % 2 == 1) {
    for (Vertex i = 0; i < n / 2; ++i)
      e.emplace_back(i, static_cast<Vertex>(i + n / 2));
  }
  // The swap loop draws indices into e, so its sorted order is part of
  // the output; deduplicating keeps the regularity check meaningful.
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());
  SCOL_CHECK(static_cast<std::int64_t>(e.size()) ==
                 static_cast<std::int64_t>(n) * d / 2,
             + "circulant base must be d-regular");
  // Fixed-width adjacency rows: swaps preserve every degree, so row v
  // always holds exactly d neighbors and an edge test is a d-slot scan.
  // Edge k = (u, v), u < v, sits at row(u)[slot[2k]] and row(v)[slot[2k+1]],
  // so a swap rewrites its four known cells instead of searching the rows.
  const auto dd = static_cast<std::size_t>(d);
  std::vector<Vertex> nbr(static_cast<std::size_t>(n) * dd);
  std::vector<std::uint32_t> fill(static_cast<std::size_t>(n), 0);
  std::vector<std::uint32_t> slot(2 * e.size());
  const auto row = [&](Vertex v) {
    return nbr.data() + static_cast<std::size_t>(v) * dd;
  };
  for (std::size_t k = 0; k < e.size(); ++k) {
    const auto [u, v] = e[k];
    std::uint32_t& fu = fill[static_cast<std::size_t>(u)];
    std::uint32_t& fv = fill[static_cast<std::size_t>(v)];
    SCOL_CHECK(fu < dd && fv < dd, + "circulant base must be d-regular");
    slot[2 * k] = fu;
    slot[2 * k + 1] = fv;
    row(u)[fu++] = v;
    row(v)[fv++] = u;
  }
  // Full-row scan without an early exit: d is small, and the loop has no
  // branch to mispredict.
  const auto adjacent = [&](Vertex u, Vertex v) {
    const Vertex* r = row(u);
    bool hit = false;
    for (std::size_t s = 0; s < dd; ++s) hit |= r[s] == v;
    return hit;
  };
  // Double-edge swaps: (a,b),(c,x) -> (a,c),(b,x) when the result stays
  // simple and loop-free. The draws (i, j, then the flip when i != j) and
  // the accept rule fix the output; only the bookkeeping is indexed.
  const std::size_t swaps = 20 * e.size();
  for (std::size_t t = 0; t < swaps; ++t) {
    const std::size_t i = rng.below(e.size());
    const std::size_t j = rng.below(e.size());
    if (i == j) continue;
    // flip picks which endpoint of edge j plays c, with its slot.
    const std::size_t flip = rng.chance(0.5) ? 1 : 0;
    const Vertex a = e[i].first;
    const Vertex b = e[i].second;
    const Vertex ends[2] = {e[j].first, e[j].second};
    const Vertex c = ends[flip];
    const Vertex x = ends[1 - flip];
    const bool reject = (a == c) | (a == x) | (b == c) | (b == x) |
                        adjacent(a, c) | adjacent(b, x);
    if (reject) continue;
    const std::uint32_t sa = slot[2 * i];
    const std::uint32_t sb = slot[2 * i + 1];
    const std::uint32_t sc = slot[2 * j + flip];
    const std::uint32_t sx = slot[2 * j + 1 - flip];
    row(a)[sa] = c;
    row(b)[sb] = x;
    row(c)[sc] = a;
    row(x)[sx] = b;
    const bool ac = a < c;
    const bool bx = b < x;
    e[i] = ac ? Edge{a, c} : Edge{c, a};
    slot[2 * i] = ac ? sa : sc;
    slot[2 * i + 1] = ac ? sc : sa;
    e[j] = bx ? Edge{b, x} : Edge{x, b};
    slot[2 * j] = bx ? sb : sx;
    slot[2 * j + 1] = bx ? sx : sb;
  }
  // from_edges gives the same CSR for any edge order, so e stays unsorted.
  return Graph::from_edges(n, e);
}

Graph random_gallai_tree(Vertex blocks, Vertex max_clique, Rng& rng) {
  SCOL_REQUIRE(blocks >= 1 && max_clique >= 2);
  std::vector<Edge> edges;
  Vertex next_vertex = 0;
  std::vector<Vertex> all_vertices;
  auto fresh = [&]() {
    all_vertices.push_back(next_vertex);
    return next_vertex++;
  };
  for (Vertex bi = 0; bi < blocks; ++bi) {
    // Attachment: a fresh vertex for the first block, else a random
    // existing vertex (the cut vertex).
    const Vertex root = (bi == 0)
                            ? fresh()
                            : all_vertices[rng.below(all_vertices.size())];
    if (rng.chance(0.5)) {
      // Odd cycle of length 3, 5, 7 or 9 through root.
      const Vertex len = static_cast<Vertex>(3 + 2 * rng.below(4));
      std::vector<Vertex> cyc{root};
      for (Vertex i = 1; i < len; ++i) cyc.push_back(fresh());
      for (Vertex i = 0; i < len; ++i)
        edges.emplace_back(cyc[i], cyc[(i + 1) % len]);
    } else {
      // Clique of size 2..max_clique through root.
      const Vertex size =
          static_cast<Vertex>(2 + rng.below(static_cast<std::uint64_t>(
                                      std::max<Vertex>(1, max_clique - 1))));
      std::vector<Vertex> cl{root};
      for (Vertex i = 1; i < size; ++i) cl.push_back(fresh());
      for (std::size_t i = 0; i < cl.size(); ++i)
        for (std::size_t j = i + 1; j < cl.size(); ++j)
          edges.emplace_back(cl[i], cl[j]);
    }
  }
  std::vector<Edge> norm;
  for (auto [u, v] : edges) norm.emplace_back(std::min(u, v), std::max(u, v));
  std::sort(norm.begin(), norm.end());
  norm.erase(std::unique(norm.begin(), norm.end()), norm.end());
  return Graph::from_edges(next_vertex, norm);
}

Graph random_non_gallai(Vertex n, Rng& rng) {
  SCOL_REQUIRE(n >= 4);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Graph t = random_tree(n, rng);
    std::vector<Edge> edges = t.edges();
    // Add 2-4 random chords; with an even cycle or chorded cycle the graph
    // stops being a Gallai tree.
    std::set<Edge> have(edges.begin(), edges.end());
    const int extra = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < extra; ++i) {
      const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
      if (u == v) continue;
      const Edge e{std::min(u, v), std::max(u, v)};
      if (have.insert(e).second) edges.push_back(e);
    }
    Graph g = Graph::from_edges(n, edges);
    if (!is_gallai_tree(g)) return g;
  }
  throw InternalError("random_non_gallai: failed to generate");
}

}  // namespace scol

#include "scol/gen/planar_random.h"

#include <array>
#include <bit>

#include "scol/gen/lattice.h"

namespace scol {

Graph random_stacked_triangulation(Vertex n, Rng& rng) {
  SCOL_REQUIRE(n >= 3);
  std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  // Two copies of the initial triangle: inserting into either side keeps
  // the outer face available, matching a planar embedding of K_3.
  // Each insertion retires its face and appends three, so the face array
  // is append-only and a Fenwick tree over its live slots picks the f-th
  // live face in slot order (the order an erasing array would keep) in
  // O(log n).
  const std::size_t slots = 2 + 3 * static_cast<std::size_t>(n - 3);
  std::vector<std::array<Vertex, 3>> faces;
  faces.reserve(slots);
  std::vector<std::size_t> live(slots + 1, 0);  // 1-based Fenwick tree
  const auto lowbit = [](std::size_t i) { return i & (~i + 1); };
  const auto add_face = [&](const std::array<Vertex, 3>& tri) {
    faces.push_back(tri);
    for (std::size_t i = faces.size(); i <= slots; i += lowbit(i)) ++live[i];
  };
  const auto retire = [&](std::size_t slot) {
    for (std::size_t i = slot + 1; i <= slots; i += lowbit(i)) --live[i];
  };
  // Slot of the f-th (0-based) live face: the largest prefix of slots
  // holding at most f live faces ends right before it.
  const auto select = [&](std::size_t f) {
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(slots); step > 0; step >>= 1) {
      if (pos + step <= slots && live[pos + step] <= f) {
        pos += step;
        f -= live[pos];
      }
    }
    return pos;
  };
  add_face({0, 1, 2});
  add_face({0, 1, 2});
  for (Vertex v = 3; v < n; ++v) {
    // 2v - 4 faces are live before v goes in.
    const std::size_t slot =
        select(rng.below(2 * static_cast<std::uint64_t>(v) - 4));
    const std::array<Vertex, 3> tri = faces[slot];
    retire(slot);
    for (Vertex corner : tri) edges.emplace_back(corner, v);
    add_face({tri[0], tri[1], v});
    add_face({tri[1], tri[2], v});
    add_face({tri[0], tri[2], v});
  }
  return Graph::from_edges(n, edges);
}

Graph grid_random_diagonals(Vertex rows, Vertex cols, Rng& rng) {
  SCOL_REQUIRE(rows >= 2 && cols >= 2);
  GraphBuilder b(rows * cols);
  for (Vertex i = 0; i < rows; ++i)
    for (Vertex j = 0; j < cols; ++j) {
      if (i + 1 < rows) b.add_edge(lattice_id(i, j, cols), lattice_id(i + 1, j, cols));
      if (j + 1 < cols) b.add_edge(lattice_id(i, j, cols), lattice_id(i, j + 1, cols));
      if (i + 1 < rows && j + 1 < cols) {
        if (rng.chance(0.5))
          b.add_edge(lattice_id(i, j, cols), lattice_id(i + 1, j + 1, cols));
        else
          b.add_edge(lattice_id(i + 1, j, cols), lattice_id(i, j + 1, cols));
      }
    }
  return b.build();
}

Graph random_subhex(Vertex rows, Vertex cols, double p, Rng& rng) {
  SCOL_REQUIRE(p >= 0.0 && p < 1.0);
  const Graph hex = hex_patch(rows, cols);
  std::vector<char> keep(static_cast<std::size_t>(hex.num_vertices()), 1);
  for (auto&& k : keep)
    if (rng.chance(p)) k = 0;
  const InducedSubgraph sub = induce(hex, keep);
  // Drop isolated vertices for tidiness.
  std::vector<char> non_isolated(
      static_cast<std::size_t>(sub.graph.num_vertices()), 1);
  for (Vertex v = 0; v < sub.graph.num_vertices(); ++v)
    if (sub.graph.degree(v) == 0) non_isolated[static_cast<std::size_t>(v)] = 0;
  return induce(sub.graph, non_isolated).graph;
}

}  // namespace scol

#include "scol/gen/lattice.h"

#include <limits>
#include <string>

namespace scol {

Vertex lattice_size(const char* product, Vertex rows, Vertex cols) {
  constexpr Vertex kMax = std::numeric_limits<Vertex>::max();
  const std::int64_t n = std::int64_t{rows} * cols;
  if (n > kMax)
    throw PreconditionError(std::string(product) + " = " + std::to_string(n) +
                            " exceeds " + std::to_string(kMax) + " vertices");
  return static_cast<Vertex>(n);
}

Graph grid(Vertex rows, Vertex cols) {
  SCOL_REQUIRE(rows >= 1 && cols >= 1);
  GraphBuilder b(lattice_size("grid: rows * cols", rows, cols));
  for (Vertex i = 0; i < rows; ++i)
    for (Vertex j = 0; j < cols; ++j) {
      if (i + 1 < rows) b.add_edge(lattice_id(i, j, cols), lattice_id(i + 1, j, cols));
      if (j + 1 < cols) b.add_edge(lattice_id(i, j, cols), lattice_id(i, j + 1, cols));
    }
  return b.build();
}

Graph cylinder(Vertex rows, Vertex cols) {
  SCOL_REQUIRE(rows >= 3 && cols >= 1);
  GraphBuilder b(lattice_size("cylinder: rows * cols", rows, cols));
  for (Vertex i = 0; i < rows; ++i)
    for (Vertex j = 0; j < cols; ++j) {
      b.add_edge(lattice_id(i, j, cols), lattice_id((i + 1) % rows, j, cols));
      if (j + 1 < cols) b.add_edge(lattice_id(i, j, cols), lattice_id(i, j + 1, cols));
    }
  return b.build();
}

Graph torus_grid(Vertex rows, Vertex cols) {
  SCOL_REQUIRE(rows >= 3 && cols >= 3);
  GraphBuilder b(lattice_size("torus_grid: rows * cols", rows, cols));
  for (Vertex i = 0; i < rows; ++i)
    for (Vertex j = 0; j < cols; ++j) {
      b.add_edge(lattice_id(i, j, cols), lattice_id((i + 1) % rows, j, cols));
      b.add_edge(lattice_id(i, j, cols), lattice_id(i, (j + 1) % cols, cols));
    }
  return b.build();
}

Graph klein_grid(Vertex k, Vertex l) {
  SCOL_REQUIRE(k >= 3 && l >= 3);
  GraphBuilder b(lattice_size("klein_grid: k * l", k, l));
  for (Vertex i = 0; i < k; ++i)
    for (Vertex j = 0; j < l; ++j) {
      // Vertical cycle.
      b.add_edge(lattice_id(i, j, l), lattice_id((i + 1) % k, j, l));
      if (j + 1 < l) {
        b.add_edge(lattice_id(i, j, l), lattice_id(i, j + 1, l));
      } else {
        // Orientation-reversing horizontal wrap (the Klein bottle glue):
        // column l-1 meets column 0 through the reflection i -> k-1-i.
        b.add_edge(lattice_id(i, l - 1, l), lattice_id(k - 1 - i, 0, l));
      }
    }
  return b.build();
}

Graph hex_patch(Vertex rows, Vertex cols) {
  SCOL_REQUIRE(rows >= 2 && cols >= 2);
  GraphBuilder b(lattice_size("hex_patch: rows * cols", rows, cols));
  for (Vertex i = 0; i < rows; ++i)
    for (Vertex j = 0; j < cols; ++j) {
      if (i + 1 < rows) b.add_edge(lattice_id(i, j, cols), lattice_id(i + 1, j, cols));
      if (j + 1 < cols && (i + j) % 2 == 0)
        b.add_edge(lattice_id(i, j, cols), lattice_id(i, j + 1, cols));
    }
  return b.build();
}

CombinatorialMap torus_triangulation_map(Vertex rows, Vertex cols) {
  SCOL_REQUIRE(rows >= 5 && cols >= 5, + "need >=5 to keep the graph simple");
  const Vertex n = lattice_size("torus_triangulation: rows * cols",
                                rows, cols);
  std::vector<std::vector<Vertex>> rot(static_cast<std::size_t>(n));
  auto id = [&](Vertex i, Vertex j) {
    return lattice_id((i % rows + rows) % rows, (j % cols + cols) % cols, cols);
  };
  for (Vertex i = 0; i < rows; ++i)
    for (Vertex j = 0; j < cols; ++j) {
      // Counterclockwise rotation of the triangular lattice: E, SE, S, W,
      // NW, N (diagonal = down-right).
      rot[static_cast<std::size_t>(id(i, j))] = {
          id(i, j + 1), id(i + 1, j + 1), id(i + 1, j),
          id(i, j - 1), id(i - 1, j - 1), id(i - 1, j)};
    }
  return CombinatorialMap(n, std::move(rot));
}

Graph torus_triangulation(Vertex rows, Vertex cols) {
  return torus_triangulation_map(rows, cols).graph();
}

}  // namespace scol

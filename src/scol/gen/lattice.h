// Lattice-based generators: planar grids, cylinders, tori, Klein-bottle
// quadrangulations (Figure 2), hexagonal (girth-6) patches, and
// triangulated torus grids with explicit rotation systems.
#pragma once

#include <functional>

#include "scol/graph/graph.h"
#include "scol/surface/map.h"

namespace scol {

/// rows x cols planar rectangular grid.
Graph grid(Vertex rows, Vertex cols);

/// Cylinder C_rows x P_cols: the row index wraps (vertical cycles of length
/// `rows`), columns do not. Planar for all sizes.
Graph cylinder(Vertex rows, Vertex cols);

/// Torus grid: both indices wrap. Quadrangulation of the torus.
Graph torus_grid(Vertex rows, Vertex cols);

/// Klein-bottle quadrangulation G_{k,l} (Figure 2, left): vertical cycles of
/// length k; the horizontal wrap glues column l-1 to column 0 through the
/// reflection i -> k-1-i. For odd k and odd l this is Gallai's 4-chromatic
/// quadrangulation.
Graph klein_grid(Vertex k, Vertex l);

/// Vertex index helpers for the lattice generators ((i, j) -> id).
inline Vertex lattice_id(Vertex i, Vertex j, Vertex cols) {
  return i * cols + j;
}

/// rows * cols computed in 64 bits, as the vertex count of a rows x cols
/// lattice: throws PreconditionError naming the `product` ("grid: rows *
/// cols") and its value when it exceeds 2^31 - 1, before anything is
/// allocated.
Vertex lattice_size(const char* product, Vertex rows, Vertex cols);

/// Hexagonal ("brick-wall") patch with `rows` x `cols` vertices: all
/// vertical edges, horizontal edges where i+j is even. Planar, girth 6
/// (for large enough patches), max degree 3.
Graph hex_patch(Vertex rows, Vertex cols);

/// Triangulated torus grid (rows x cols, edges E, S, SE), as a
/// combinatorial map certifying the genus-1 triangular embedding.
/// Requires rows, cols >= 3; for rows or cols == 3 or 4 diagonals may
/// collide, so sizes >= 5 are recommended (enforced: >= 3 and simple).
CombinatorialMap torus_triangulation_map(Vertex rows, Vertex cols);

/// The underlying graph of torus_triangulation_map.
Graph torus_triangulation(Vertex rows, Vertex cols);

}  // namespace scol

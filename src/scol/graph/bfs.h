// Breadth-first search utilities: distances, truncated balls, multi-source
// BFS. These back both the sequential substrate and the LOCAL
// ball-collection oracle.
#pragma once

#include <vector>

#include "scol/graph/graph.h"

namespace scol {

/// Distances from `source`; unreachable vertices get -1.
std::vector<Vertex> bfs_distances(const Graph& g, Vertex source);

/// Distances from every vertex of `sources` (multi-source); -1 unreachable.
std::vector<Vertex> bfs_distances(const Graph& g,
                                  const std::vector<Vertex>& sources);

/// Vertices at distance <= radius from v (the ball B_r(v) of §3), in BFS
/// order starting with v itself. radius must be >= 0.
std::vector<Vertex> ball(const Graph& g, Vertex v, Vertex radius);

/// Ball within the subgraph induced by `mask` (B^r_R(v) of §3). Returns an
/// empty vector when mask[v] == 0, matching the paper's convention that
/// B_R(v) is empty iff v is not in R.
std::vector<Vertex> ball_within(const Graph& g, const std::vector<char>& mask,
                                Vertex v, Vertex radius);

}  // namespace scol

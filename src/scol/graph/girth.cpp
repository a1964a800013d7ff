#include "scol/graph/girth.h"

namespace scol {

Vertex girth(const Graph& g, Vertex limit) {
  const Vertex n = g.num_vertices();
  Vertex best = -1;
  // Truncation: a cycle of length L <= limit is found from any of its
  // own vertices within depth ceil(limit/2), and a non-tree edge at
  // depth d closes a closed walk of length <= 2d + 1 through the root,
  // which always contains a cycle no longer than the walk — so the
  // minimum over all roots of the reports <= limit stays exact.
  const Vertex depth = limit < 0 ? -1 : (limit + 1) / 2;
  // dist stays -1 between roots: each BFS resets only the vertices it
  // queued, so a root costs O(visited), not O(n).
  std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> parent(static_cast<std::size_t>(n));
  std::vector<Vertex> queue;
  // A simple graph has no cycle shorter than 3, so 3 is final.
  for (Vertex s = 0; s < n && best != 3; ++s) {
    // BFS from s; a non-tree edge (u, w) closes a cycle through s of length
    // dist[u] + dist[w] + 1 (exact when u, w are on shortest paths from s,
    // which BFS guarantees; minimizing over all s gives the girth).
    queue.assign(1, s);
    dist[s] = 0;
    parent[s] = -1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex u = queue[head];
      if (best >= 0 && 2 * dist[u] >= best) break;  // cannot improve
      if (depth >= 0 && dist[u] >= depth) continue;  // truncated scan
      for (Vertex w : g.neighbors(u)) {
        if (dist[w] < 0) {
          dist[w] = dist[u] + 1;
          parent[w] = u;
          queue.push_back(w);
        } else if (w != parent[u]) {
          const Vertex len = dist[u] + dist[w] + 1;
          if (limit >= 0 && len > limit) continue;
          if (best < 0 || len < best) best = len;
        }
      }
    }
    for (const Vertex v : queue) dist[v] = -1;
  }
  return best;
}

bool triangle_free(const Graph& g) { return girth(g, 3) != 3; }

}  // namespace scol

#include "scol/graph/bfs.h"

namespace scol {

std::vector<Vertex> bfs_distances(const Graph& g, Vertex source) {
  return bfs_distances(g, std::vector<Vertex>{source});
}

std::vector<Vertex> bfs_distances(const Graph& g,
                                  const std::vector<Vertex>& sources) {
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> queue;
  queue.reserve(sources.size());
  for (Vertex s : sources) {
    SCOL_REQUIRE(g.valid(s));
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (Vertex w : g.neighbors(u)) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<Vertex> ball(const Graph& g, Vertex v, Vertex radius) {
  SCOL_REQUIRE(g.valid(v) && radius >= 0);
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> order;
  dist[v] = 0;
  order.push_back(v);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Vertex u = order[head];
    if (dist[u] == radius) continue;
    for (Vertex w : g.neighbors(u)) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        order.push_back(w);
      }
    }
  }
  return order;
}

std::vector<Vertex> ball_within(const Graph& g, const std::vector<char>& mask,
                                Vertex v, Vertex radius) {
  SCOL_REQUIRE(g.valid(v) && radius >= 0);
  SCOL_REQUIRE(static_cast<Vertex>(mask.size()) == g.num_vertices());
  if (!mask[v]) return {};
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> order;
  dist[v] = 0;
  order.push_back(v);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Vertex u = order[head];
    if (dist[u] == radius) continue;
    for (Vertex w : g.neighbors(u)) {
      if (mask[w] && dist[w] < 0) {
        dist[w] = dist[u] + 1;
        order.push_back(w);
      }
    }
  }
  return order;
}

}  // namespace scol

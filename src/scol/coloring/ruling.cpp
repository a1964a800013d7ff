#include "scol/coloring/ruling.h"

#include "scol/graph/bfs.h"
#include "scol/util/executor.h"

namespace scol {

RulingForest ruling_forest(const Graph& g, const std::vector<char>& in_u,
                           Vertex alpha, Rounds& rounds) {
  const Executor& exec = rounds.exec();
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(static_cast<Vertex>(in_u.size()) == n);
  SCOL_REQUIRE(alpha >= 1);

  int bits = 1;
  while ((std::int64_t{1} << bits) < std::max<Vertex>(n, 2)) ++bits;

  RulingForest out;
  out.alpha = alpha;
  out.depth_bound = alpha * bits;

  // --- Short components: the bit elimination in closed form. ---
  // One BFS pass finds each component C and the eccentricity e of its
  // least vertex. When 2e <= alpha - 1 every pair of C is within
  // alpha - 1, so at each bit the truncated BFS from C's alive zero-bit
  // candidates reaches all of C's alive one-bit candidates: a bit with
  // both kinds alive keeps exactly the zero-bit ones. The lone survivor is
  // the candidate that wins every comparison at the lowest differing id
  // bit (a 0 there wins). Only the U-vertices of the remaining long
  // components run the bit loop below.
  std::vector<char> alive(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> long_candidates;
  std::vector<Vertex> dist(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> queue;
  for (Vertex s = 0; s < n; ++s) {
    if (dist[static_cast<std::size_t>(s)] >= 0) continue;
    queue.clear();
    queue.push_back(s);
    dist[static_cast<std::size_t>(s)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      for (Vertex y : g.neighbors(x)) {
        if (dist[static_cast<std::size_t>(y)] < 0) {
          dist[static_cast<std::size_t>(y)] = dist[static_cast<std::size_t>(x)] + 1;
          queue.push_back(y);
        }
      }
    }
    const Vertex ecc = dist[static_cast<std::size_t>(queue.back())];
    if (2 * static_cast<std::int64_t>(ecc) <= alpha - 1) {
      Vertex survivor = -1;
      for (Vertex v : queue) {
        if (!in_u[static_cast<std::size_t>(v)]) continue;
        const Vertex diff = v ^ survivor;
        if (survivor < 0 || (survivor & diff & -diff) != 0) survivor = v;
      }
      if (survivor >= 0) alive[static_cast<std::size_t>(survivor)] = 1;
    } else {
      for (Vertex v : queue)
        if (in_u[static_cast<std::size_t>(v)]) long_candidates.push_back(v);
    }
  }
  std::fill(dist.begin(), dist.end(), -1);
  for (Vertex v : long_candidates) alive[static_cast<std::size_t>(v)] = 1;

  // --- Long components: ruling set by bit elimination. ---
  // One dist/queue pair serves every bit: each BFS leaves exactly the
  // vertices on its queue marked, and only those are reset.
  std::int64_t schedule = 0;
  for (int b = 0; b < bits; ++b) {
    queue.clear();
    bool has_one = false;
    for (Vertex v : long_candidates) {
      if (!alive[static_cast<std::size_t>(v)]) continue;
      if ((v >> b) & 1)
        has_one = true;
      else
        queue.push_back(v);
    }
    schedule += alpha;  // the schedule always runs the alpha-truncated BFS
    if (queue.empty() || !has_one) continue;
    // Truncated multi-source BFS from the zero-bit candidates: any one-bit
    // candidate within distance < alpha drops out.
    for (Vertex z : queue) dist[static_cast<std::size_t>(z)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      if (dist[static_cast<std::size_t>(x)] == alpha - 1) continue;
      for (Vertex y : g.neighbors(x)) {
        if (dist[static_cast<std::size_t>(y)] < 0) {
          dist[static_cast<std::size_t>(y)] = dist[static_cast<std::size_t>(x)] + 1;
          queue.push_back(y);
        }
      }
    }
    // Per-candidate elimination is independent (reads dist, writes own flag).
    parallel_for_index(exec, long_candidates.size(), [&](std::size_t i) {
      const Vertex v = long_candidates[i];
      const auto vi = static_cast<std::size_t>(v);
      if (alive[vi] && ((v >> b) & 1) && dist[vi] >= 0) alive[vi] = 0;
    });
    for (Vertex x : queue) dist[static_cast<std::size_t>(x)] = -1;
  }

  // --- BFS forest from the survivors, truncated at the depth bound. ---
  out.root.assign(static_cast<std::size_t>(n), -1);
  out.parent.assign(static_cast<std::size_t>(n), -1);
  out.depth.assign(static_cast<std::size_t>(n), -1);
  queue.clear();
  for (Vertex v = 0; v < n; ++v) {
    if (alive[static_cast<std::size_t>(v)]) {
      out.roots.push_back(v);
      out.root[static_cast<std::size_t>(v)] = v;
      out.depth[static_cast<std::size_t>(v)] = 0;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    if (out.depth[static_cast<std::size_t>(x)] == out.depth_bound) continue;
    for (Vertex y : g.neighbors(x)) {
      if (out.root[static_cast<std::size_t>(y)] < 0) {
        out.root[static_cast<std::size_t>(y)] = out.root[static_cast<std::size_t>(x)];
        out.parent[static_cast<std::size_t>(y)] = x;
        out.depth[static_cast<std::size_t>(y)] =
            out.depth[static_cast<std::size_t>(x)] + 1;
        out.max_depth =
            std::max(out.max_depth, out.depth[static_cast<std::size_t>(y)]);
        queue.push_back(y);
      }
    }
  }
  schedule += out.depth_bound;

  // Every U-vertex must have been captured (coverage property).
  parallel_for_index(exec, static_cast<std::size_t>(n), [&](std::size_t i) {
    SCOL_CHECK(!in_u[i] || out.in_forest(static_cast<Vertex>(i)),
               + "ruling forest must cover U");
  });

  rounds.charge("ruling-forest", schedule);
  return out;
}

}  // namespace scol

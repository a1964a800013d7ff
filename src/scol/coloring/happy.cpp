#include "scol/coloring/happy.h"

#include <algorithm>
#include <atomic>

#include "scol/graph/blocks.h"
#include "scol/graph/components.h"

namespace scol {
namespace {

// BFS and Gallai-test scratch over one graph, allocated once per happy-set
// computation. Every pass resets exactly the vertices it touched, so a
// ball test costs O(size of the ball) rather than O(n).
class BallScratch {
 public:
  explicit BallScratch(const Graph& g)
      : g_(g),
        dist_(static_cast<std::size_t>(g.num_vertices()), -1),
        depth_(static_cast<std::size_t>(g.num_vertices()), -1),
        low_(static_cast<std::size_t>(g.num_vertices()), 0),
        vertices_at_(static_cast<std::size_t>(g.num_vertices()), 0),
        edges_at_(static_cast<std::size_t>(g.num_vertices()), 0) {}

  // Multi-source BFS marking happy[x] for all x within `limit` of
  // `sources`.
  void mark_within(const std::vector<Vertex>& sources, Vertex limit,
                   std::vector<char>& happy) {
    if (sources.empty() || limit < 0) return;
    queue_.clear();
    for (Vertex s : sources) {
      if (dist_[static_cast<std::size_t>(s)] != 0) {
        dist_[static_cast<std::size_t>(s)] = 0;
        happy[static_cast<std::size_t>(s)] = 1;
        queue_.push_back(s);
      }
    }
    bfs(limit, &happy);
    clear_dist();
  }

  // Is the ball of radius r around v non-Gallai? r < 0 means no bound:
  // the ball is v's whole component. (The ball is connected, so
  // Gallai-forest == Gallai-tree.) A ball never leaves v's component, so
  // no component mask is needed. When `ecc` is non-null it receives the
  // largest distance reached from v.
  bool ball_non_gallai(Vertex v, Vertex r, Vertex* ecc = nullptr) {
    queue_.assign(1, v);
    dist_[static_cast<std::size_t>(v)] = 0;
    bfs(r, nullptr);
    if (ecc != nullptr) *ecc = dist_[static_cast<std::size_t>(queue_.back())];
    const bool bad = has_non_gallai_block(v);
    for (Vertex x : queue_) depth_[static_cast<std::size_t>(x)] = -1;
    clear_dist();
    return bad;
  }

 private:
  struct Frame {
    Vertex v;
    Vertex parent;
    std::size_t edge_index;  // index into neighbors(v)
  };

  // Extends the BFS on queue_ (sources at distance 0) up to `limit`.
  void bfs(Vertex limit, std::vector<char>* happy) {
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const Vertex x = queue_[head];
      const Vertex dx = dist_[static_cast<std::size_t>(x)];
      if (dx == limit) continue;
      for (Vertex y : g_.neighbors(x)) {
        if (dist_[static_cast<std::size_t>(y)] < 0) {
          dist_[static_cast<std::size_t>(y)] = dx + 1;
          if (happy != nullptr) (*happy)[static_cast<std::size_t>(y)] = 1;
          queue_.push_back(y);
        }
      }
    }
  }

  void clear_dist() {
    for (Vertex x : queue_) dist_[static_cast<std::size_t>(x)] = -1;
  }

  // Counting Hopcroft–Tarjan over the subgraph induced by the marked
  // (dist >= 0) vertices, which is connected and contains `root`. Blocks
  // are contiguous suffixes of the DFS vertex and edge stacks, so only the
  // stack heights are kept: a block closed at tree edge (p, v) has the
  // vertices pushed since v (plus p) and the edges pushed since (p, v).
  bool has_non_gallai_block(Vertex root) {
    std::int64_t vertices = 0, edges = 0;  // stack heights
    depth_[static_cast<std::size_t>(root)] = 0;
    low_[static_cast<std::size_t>(root)] = 0;
    frames_.assign(1, Frame{root, -1, 0});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      const auto nb = g_.neighbors(f.v);
      if (f.edge_index < nb.size()) {
        const Vertex w = nb[f.edge_index++];
        const auto wi = static_cast<std::size_t>(w);
        if (w == f.parent || dist_[wi] < 0) continue;
        const auto vi = static_cast<std::size_t>(f.v);
        if (depth_[wi] < 0) {
          vertices_at_[wi] = vertices++;
          edges_at_[wi] = edges++;
          depth_[wi] = depth_[vi] + 1;
          low_[wi] = depth_[wi];
          frames_.push_back(Frame{w, f.v, 0});
        } else if (depth_[wi] < depth_[vi]) {
          ++edges;  // back edge
          low_[vi] = std::min(low_[vi], depth_[wi]);
        }
      } else {
        const auto vi = static_cast<std::size_t>(f.v);
        const Vertex p = f.parent;
        frames_.pop_back();
        if (p < 0) continue;
        const auto pi = static_cast<std::size_t>(p);
        low_[pi] = std::min(low_[pi], low_[vi]);
        if (low_[vi] < depth_[pi]) continue;
        // p separates v's subtree: close one block.
        const std::int64_t k = vertices - vertices_at_[vi] + 1;
        const std::int64_t e = edges - edges_at_[vi];
        vertices = vertices_at_[vi];
        edges = edges_at_[vi];
        if (!block_is_clique(k, e) && !block_is_odd_cycle(k, e)) return true;
      }
    }
    return false;
  }

  const Graph& g_;
  std::vector<Vertex> dist_;   // -1 outside the current BFS
  std::vector<Vertex> queue_;  // the current BFS, in visit order
  std::vector<Vertex> depth_;  // DFS depth, -1 unvisited
  std::vector<Vertex> low_;
  std::vector<std::int64_t> vertices_at_;  // vertex-stack height at push
  std::vector<std::int64_t> edges_at_;     // edge-stack height at push
  std::vector<Frame> frames_;
};

}  // namespace

HappyAnalysis compute_happy_set(const Graph& g, Vertex d, Vertex rho,
                                const Executor* executor) {
  SCOL_REQUIRE(d >= 1);
  const Vertex n = g.num_vertices();
  std::vector<char> rich(static_cast<std::size_t>(n), 0);
  std::vector<char> witness(static_cast<std::size_t>(n), 0);
  // Rich/degree classification: each index writes only its own masks, so
  // the pass is bit-identical under every executor.
  parallel_for_index(resolve_executor(executor), static_cast<std::size_t>(n),
                     [&](std::size_t i) {
                       const Vertex v = static_cast<Vertex>(i);
                       rich[i] = g.degree(v) <= d;
                       witness[i] = g.degree(v) <= d - 1;
                     });
  HappyAnalysis out = compute_happy_set_general(g, rich, witness, rho, executor);
  out.d = d;
  return out;
}

HappyAnalysis compute_happy_set_general(const Graph& g,
                                        const std::vector<char>& rich_mask,
                                        const std::vector<char>& witness_mask,
                                        Vertex rho,
                                        const Executor* executor) {
  SCOL_REQUIRE(rho >= 0);
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(static_cast<Vertex>(rich_mask.size()) == n);
  SCOL_REQUIRE(static_cast<Vertex>(witness_mask.size()) == n);
  HappyAnalysis out;
  out.radius = rho;
  out.rich = rich_mask;
  out.happy.assign(static_cast<std::size_t>(n), 0);

  // Rich/poor tally (chunk-local sums folded through atomics: integer
  // addition commutes, so counts are executor-independent).
  std::atomic<Vertex> num_rich{0};
  resolve_executor(executor).parallel_ranges(
      static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
        Vertex local_rich = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (rich_mask[i]) ++local_rich;
          SCOL_REQUIRE(!witness_mask[i] || rich_mask[i],
                       + "witnesses must be rich");
        }
        num_rich.fetch_add(local_rich, std::memory_order_relaxed);
      });
  out.num_rich = num_rich.load(std::memory_order_relaxed);
  out.num_poor = n - out.num_rich;

  const InducedSubgraph gr = induce(g, out.rich);
  const Vertex nr = gr.graph.num_vertices();
  std::vector<char> happy_gr(static_cast<std::size_t>(nr), 0);
  BallScratch scratch(gr.graph);

  // Condition 1 (exact): within rho of a witness, in G[R].
  std::vector<Vertex> low_degree;
  for (Vertex x = 0; x < nr; ++x)
    if (witness_mask[static_cast<std::size_t>(
            gr.to_original[static_cast<std::size_t>(x)])])
      low_degree.push_back(x);
  scratch.mark_within(low_degree, rho, happy_gr);

  // Condition 2 (exact): per component of G[R].
  const Components comps = connected_components(gr.graph);
  for (const auto& comp : comps.groups()) {
    if (comp.size() <= 2) continue;  // tiny components are Gallai trees
    // The unbounded ball around the least vertex is the whole component.
    Vertex ecc = 0;
    // Fast path (2): a Gallai-tree component has only Gallai balls.
    if (!scratch.ball_non_gallai(comp[0], -1, &ecc)) continue;
    // Fast path (3): shallow component — every ball is the whole component,
    // which is non-Gallai, so everyone is happy.
    if (2 * ecc <= rho) {
      for (Vertex x : comp) happy_gr[static_cast<std::size_t>(x)] = 1;
      continue;
    }
    // Escalating witness radii with monotone propagation.
    for (Vertex r = 1;; r *= 2) {
      const Vertex rr = std::min(r, rho);
      std::vector<Vertex> witnesses;
      for (Vertex x : comp) {
        if (happy_gr[static_cast<std::size_t>(x)]) continue;
        if (scratch.ball_non_gallai(x, rr)) {
          witnesses.push_back(x);
          happy_gr[static_cast<std::size_t>(x)] = 1;
        }
      }
      // Propagate: every vertex within rho - rr of a witness is happy.
      scratch.mark_within(witnesses, rho - rr, happy_gr);
      if (rr == rho) break;
    }
  }

  for (Vertex x = 0; x < nr; ++x) {
    if (happy_gr[static_cast<std::size_t>(x)]) {
      out.happy[static_cast<std::size_t>(
          gr.to_original[static_cast<std::size_t>(x)])] = 1;
      ++out.num_happy;
    }
  }
  out.num_sad = out.num_rich - out.num_happy;
  return out;
}

}  // namespace scol

#include "scol/graph/blocks.h"

#include <algorithm>

namespace scol {
namespace {

// Iterative Hopcroft–Tarjan. We push tree edges on an edge stack; when a
// child subtree cannot reach above the current vertex (low[child] >=
// depth[v]) we pop one block's worth of edges.
struct Frame {
  Vertex v;
  Vertex parent;
  std::size_t edge_index;  // index into neighbors(v)
};

}  // namespace

BlockDecomposition block_decomposition(const Graph& g) {
  const Vertex n = g.num_vertices();
  BlockDecomposition out;
  out.is_cut_vertex.assign(static_cast<std::size_t>(n), 0);
  out.blocks_of_vertex.assign(static_cast<std::size_t>(n), {});

  std::vector<Vertex> depth(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> low(static_cast<std::size_t>(n), 0);
  std::vector<Edge> edge_stack;
  std::vector<Frame> stack;
  // Block-id stamps dedupe each popped block's endpoints in O(edges)
  // instead of sort+unique over the 2x-duplicated endpoint list.
  std::vector<Vertex> in_block(static_cast<std::size_t>(n), -1);

  auto pop_block = [&](Vertex u, Vertex v) {
    // Pop all edges up to and including (u, v); they form one block.
    Block b;
    const Vertex id_stamp = static_cast<Vertex>(out.blocks.size());
    std::vector<Vertex> verts;
    auto push_unique = [&](Vertex w) {
      if (in_block[static_cast<std::size_t>(w)] != id_stamp) {
        in_block[static_cast<std::size_t>(w)] = id_stamp;
        verts.push_back(w);
      }
    };
    while (!edge_stack.empty()) {
      const Edge e = edge_stack.back();
      edge_stack.pop_back();
      push_unique(e.first);
      push_unique(e.second);
      ++b.num_edges;
      if ((e.first == u && e.second == v) || (e.first == v && e.second == u))
        break;
    }
    std::sort(verts.begin(), verts.end());
    b.vertices = std::move(verts);
    const Vertex id = static_cast<Vertex>(out.blocks.size());
    for (Vertex w : b.vertices)
      out.blocks_of_vertex[static_cast<std::size_t>(w)].push_back(id);
    out.blocks.push_back(std::move(b));
  };

  for (Vertex root = 0; root < n; ++root) {
    if (depth[root] >= 0) continue;
    Vertex root_children = 0;
    depth[root] = 0;
    low[root] = 0;
    stack.push_back({root, -1, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto nb = g.neighbors(f.v);
      if (f.edge_index < nb.size()) {
        const Vertex w = nb[f.edge_index++];
        if (w == f.parent) continue;
        if (depth[w] < 0) {
          edge_stack.emplace_back(f.v, w);
          depth[w] = depth[f.v] + 1;
          low[w] = depth[w];
          stack.push_back({w, f.v, 0});
        } else if (depth[w] < depth[f.v]) {
          // Back edge.
          edge_stack.emplace_back(f.v, w);
          low[f.v] = std::min(low[f.v], depth[w]);
        }
      } else {
        const Vertex v = f.v;
        const Vertex p = f.parent;
        stack.pop_back();
        if (p >= 0) {
          low[p] = std::min(low[p], low[v]);
          if (low[v] >= depth[p]) {
            // p separates v's subtree: close a block.
            if (p == root)
              ++root_children;
            else
              out.is_cut_vertex[static_cast<std::size_t>(p)] = 1;
            pop_block(p, v);
          }
        }
      }
    }
    if (root_children >= 2)
      out.is_cut_vertex[static_cast<std::size_t>(root)] = 1;
  }
  return out;
}

bool block_is_clique(std::int64_t vertices, std::int64_t edges) {
  return edges == vertices * (vertices - 1) / 2;
}

bool block_is_odd_cycle(std::int64_t vertices, std::int64_t edges) {
  // A 2-connected graph with as many edges as vertices is exactly a cycle;
  // single-edge blocks (k = 2, e = 1) are not cycles.
  return vertices >= 3 && edges == vertices && (vertices % 2 == 1);
}

bool block_is_clique(const Block& b) {
  return block_is_clique(static_cast<std::int64_t>(b.vertices.size()),
                         b.num_edges);
}

bool block_is_odd_cycle(const Block& b) {
  return block_is_odd_cycle(static_cast<std::int64_t>(b.vertices.size()),
                            b.num_edges);
}

}  // namespace scol

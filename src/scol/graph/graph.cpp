#include "scol/graph/graph.h"

#include <algorithm>
#include <sstream>

namespace scol {
namespace {

// Sort-free O(n + m) CSR construction shared by from_edges and
// GraphBuilder::build. One pass counts endpoint degrees (validating range
// and self-loops) and a prefix sum lays out the offsets. Each row is then
// its lower neighbours (< v) followed by its upper ones, filled by three
// linear passes with one cursor per vertex as the only scratch:
//   1. every edge writes its lower endpoint into its higher endpoint's
//      lower part, in input order;
//   2. v ascending: v's lower part ends at cursor[v] (no higher vertex has
//      appended to v yet), and v is appended to each lower neighbour's
//      upper part, so every upper part comes out ascending;
//   3. cursors reset to the offsets; u ascending: u's upper part starts at
//      cursor[u] (its lower part is fully rewritten), and u is written into
//      each upper neighbour's lower part, rewriting every lower part
//      ascending.
// Pass 3 reads only upper parts and writes only lower parts, so nothing it
// still needs is overwritten. Duplicate edges land side by side. When
// `dedup` is false a duplicate edge throws; when true duplicates are
// merged and the arrays recompacted in place.
void build_csr(Vertex n, const std::vector<Edge>& edges, bool dedup,
               std::vector<std::int64_t>& offsets, std::vector<Vertex>& adj) {
  offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    SCOL_REQUIRE(u >= 0 && u < n && v >= 0 && v < n, + "endpoint range");
    SCOL_REQUIRE(u != v, + "self-loop");
    ++offsets[static_cast<std::size_t>(u) + 1];
    ++offsets[static_cast<std::size_t>(v) + 1];
  }
  for (Vertex v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  adj.resize(edges.size() * 2);
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  const auto put = [&](Vertex row, Vertex value) {
    adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(row)]++)] =
        value;
  };
  for (const auto& [u, v] : edges) put(std::max(u, v), std::min(u, v));
  for (Vertex v = 0; v < n; ++v) {
    const std::int64_t lower_end = cursor[static_cast<std::size_t>(v)];
    for (std::int64_t i = offsets[v]; i < lower_end; ++i)
      put(adj[static_cast<std::size_t>(i)], v);
  }
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  for (Vertex u = 0; u < n; ++u) {
    const std::int64_t upper_begin = cursor[static_cast<std::size_t>(u)];
    for (std::int64_t i = upper_begin; i < offsets[u + 1]; ++i)
      put(adj[static_cast<std::size_t>(i)], u);
  }

  if (!dedup) {
    for (Vertex v = 0; v < n; ++v)
      SCOL_REQUIRE(std::adjacent_find(adj.begin() + offsets[v],
                                      adj.begin() + offsets[v + 1]) ==
                       adj.begin() + offsets[v + 1],
                   + "duplicate edge");
    return;
  }
  // Merge duplicates: compact each sorted list and rebuild the offsets.
  std::size_t write = 0;
  std::int64_t prev_end = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::int64_t begin = prev_end;
    prev_end = offsets[v + 1];
    std::int64_t kept = 0;
    for (std::int64_t i = begin; i < offsets[v + 1]; ++i) {
      if (i > begin && adj[static_cast<std::size_t>(i)] ==
                           adj[static_cast<std::size_t>(i - 1)])
        continue;
      adj[write++] = adj[static_cast<std::size_t>(i)];
      ++kept;
    }
    offsets[v + 1] = offsets[v] + kept;
  }
  adj.resize(write);
}

}  // namespace

Graph Graph::from_edges(Vertex n, const std::vector<Edge>& edges) {
  SCOL_REQUIRE(n >= 0);
  Graph g;
  g.n_ = n;
  build_csr(n, edges, /*dedup=*/false, g.offsets_, g.adj_);
  return g;
}

Graph Graph::from_csr(Vertex n, std::vector<std::int64_t> offsets,
                      std::vector<Vertex> adj) {
  SCOL_REQUIRE(n >= 0);
  // Compare sizes in size_t: `n + 1` overflows Vertex at the 32-bit id
  // limit (n = 2^31 - 1), which the io capability lift must support.
  SCOL_REQUIRE(offsets.size() == static_cast<std::size_t>(n) + 1 &&
                   offsets.front() == 0 &&
                   offsets.back() == static_cast<std::int64_t>(adj.size()),
               + "CSR offsets shape");
  Graph g;
  g.n_ = n;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
#ifndef NDEBUG
  for (Vertex v = 0; v < n; ++v) {
    SCOL_DCHECK(g.offsets_[v] <= g.offsets_[v + 1], + "offsets monotone");
    for (std::int64_t i = g.offsets_[v]; i < g.offsets_[v + 1]; ++i) {
      const Vertex w = g.adj_[static_cast<std::size_t>(i)];
      SCOL_DCHECK(w >= 0 && w < n && w != v, + "CSR neighbor range");
      SCOL_DCHECK(i == g.offsets_[v] ||
                      g.adj_[static_cast<std::size_t>(i - 1)] < w,
                  + "CSR lists sorted unique");
    }
  }
#endif
  return g;
}

Vertex Graph::max_degree() const {
  Vertex d = 0;
  for (Vertex v = 0; v < n_; ++v) d = std::max(d, degree(v));
  return d;
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  SCOL_DCHECK(valid(u) && valid(v));
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges()));
  for (Vertex u = 0; u < n_; ++u)
    for (Vertex v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

Graph GraphBuilder::build() const {
  Graph g;
  g.n_ = n_;
  build_csr(n_, edges_, /*dedup=*/true, g.offsets_, g.adj_);
  return g;
}

namespace {

// Direct CSR fill from a prepared relabeling (out.to_original sorted
// ascending, out.to_induced its inverse, -1 elsewhere): the relabeling
// v -> to_induced[v] is monotone, so the source graph's sorted lists
// stay sorted after filtering — no edge vector, no sort. Kept-neighbor
// membership is read off to_induced, so the fill is O(sum deg) over the
// kept vertices only.
void fill_induced_csr(const Graph& g, InducedSubgraph& out) {
  const Vertex nk = static_cast<Vertex>(out.to_original.size());
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(nk) + 1, 0);
  std::vector<Vertex> adj;
  for (Vertex x = 0; x < nk; ++x) {
    std::int64_t deg = 0;
    for (Vertex w : g.neighbors(out.to_original[static_cast<std::size_t>(x)]))
      if (out.to_induced[static_cast<std::size_t>(w)] >= 0) ++deg;
    offsets[static_cast<std::size_t>(x) + 1] =
        offsets[static_cast<std::size_t>(x)] + deg;
  }
  adj.resize(static_cast<std::size_t>(offsets[nk]));
  for (Vertex x = 0; x < nk; ++x) {
    std::size_t i = static_cast<std::size_t>(offsets[x]);
    for (Vertex w : g.neighbors(out.to_original[static_cast<std::size_t>(x)]))
      if (out.to_induced[static_cast<std::size_t>(w)] >= 0)
        adj[i++] = out.to_induced[static_cast<std::size_t>(w)];
  }
  out.graph = Graph::from_csr(nk, std::move(offsets), std::move(adj));
}

}  // namespace

InducedSubgraph induce(const Graph& g, std::span<const char> keep) {
  SCOL_REQUIRE(static_cast<Vertex>(keep.size()) == g.num_vertices());
  InducedSubgraph out;
  out.to_induced.assign(keep.size(), -1);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (keep[v]) {
      out.to_induced[v] = static_cast<Vertex>(out.to_original.size());
      out.to_original.push_back(v);
    }
  }
  fill_induced_csr(g, out);
  return out;
}

InducedSubgraph induce(const Graph& g, const std::vector<Vertex>& vertices) {
  // The root-ball and block paths induce many small pieces out of a
  // big graph; sorting the k ids directly keeps this overload at
  // O(k log k + k deg) past the unavoidable O(n) relabeling memset,
  // instead of a full keep-mask scan of the graph. The result is
  // identical to the mask overload: vertices end up ordered by original
  // id either way.
  InducedSubgraph out;
  out.to_original = vertices;
  std::sort(out.to_original.begin(), out.to_original.end());
  out.to_induced.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t x = 0; x < out.to_original.size(); ++x) {
    const Vertex v = out.to_original[x];
    SCOL_REQUIRE(g.valid(v));
    SCOL_REQUIRE(out.to_induced[static_cast<std::size_t>(v)] < 0,
                 + "duplicate vertex in induce()");
    out.to_induced[static_cast<std::size_t>(v)] = static_cast<Vertex>(x);
  }
  fill_induced_csr(g, out);
  return out;
}

Graph permute(const Graph& g, const std::vector<Vertex>& perm) {
  SCOL_REQUIRE(static_cast<Vertex>(perm.size()) == g.num_vertices());
  std::vector<char> seen(perm.size(), 0);
  for (Vertex p : perm) {
    SCOL_REQUIRE(p >= 0 && p < g.num_vertices() && !seen[p],
                 + "perm must be a permutation");
    seen[p] = 1;
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const auto& [u, v] : g.edges()) edges.emplace_back(perm[u], perm[v]);
  return Graph::from_edges(g.num_vertices(), edges);
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  std::vector<Edge> edges = a.edges();
  const Vertex shift = a.num_vertices();
  for (const auto& [u, v] : b.edges()) edges.emplace_back(u + shift, v + shift);
  return Graph::from_edges(a.num_vertices() + b.num_vertices(), edges);
}

std::string describe(const Graph& g) {
  std::ostringstream os;
  os << "n=" << g.num_vertices() << " m=" << g.num_edges()
     << " maxdeg=" << g.max_degree() << " avgdeg=" << g.average_degree();
  return os.str();
}

}  // namespace scol

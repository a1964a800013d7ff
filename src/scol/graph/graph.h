// Immutable simple undirected graph in CSR (compressed sparse row) form.
//
// Vertices are 0..n-1. The LOCAL model's "unique identifier" of a vertex is
// its index (an integer in [1, n] in the paper; we use [0, n)). Parallel
// edges and self-loops are rejected; adjacency lists are sorted, so
// `has_edge` is O(log deg) and neighbor iteration is cache-friendly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "scol/util/check.h"

namespace scol {

using Vertex = std::int32_t;
using Edge = std::pair<Vertex, Vertex>;

/// Immutable simple undirected graph in CSR form: one offsets array
/// (size n+1) and one flat sorted adjacency array (size 2|E|). All
/// queries are O(1) or O(log deg); construction happens once through
/// from_edges / from_csr / GraphBuilder and the graph never mutates,
/// which is what lets solver runs share one instance across threads.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph on n vertices from an edge list. Throws
  /// PreconditionError on self-loops, duplicate edges, or out-of-range
  /// endpoints. O(n + m), no sort: a counting pass lays out the offsets
  /// and three linear passes fill every row in ascending order.
  static Graph from_edges(Vertex n, const std::vector<Edge>& edges);

  /// Adopts a prebuilt CSR pair (offsets of size n+1, adj of size 2|E|,
  /// every list sorted and duplicate-free). This is the zero-copy path for
  /// emitters that already produce the flat layout (induce, io readers).
  /// Shape is always checked; per-list invariants are DCHECKed.
  static Graph from_csr(Vertex n, std::vector<std::int64_t> offsets,
                        std::vector<Vertex> adj);

  /// Number of vertices n; vertex ids are 0..n-1.
  Vertex num_vertices() const { return n_; }
  /// Number of undirected edges |E|.
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(adj_.size()) / 2;
  }

  /// Degree of v (O(1) from the CSR offsets).
  Vertex degree(Vertex v) const {
    SCOL_DCHECK(valid(v));
    return static_cast<Vertex>(offsets_[v + 1] - offsets_[v]);
  }

  /// Maximum degree Delta (0 for the empty graph); O(n).
  Vertex max_degree() const;

  /// Average degree 2|E|/|V| (0 for the empty graph), as in the paper §1.2.
  double average_degree() const {
    return n_ == 0 ? 0.0
                   : 2.0 * static_cast<double>(num_edges()) /
                         static_cast<double>(n_);
  }

  /// Sorted adjacency list of v as a zero-copy view into the CSR array.
  std::span<const Vertex> neighbors(Vertex v) const {
    SCOL_DCHECK(valid(v));
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True iff {u, v} is an edge; O(log deg) binary search.
  bool has_edge(Vertex u, Vertex v) const;

  /// All edges with u < v, in CSR order.
  std::vector<Edge> edges() const;

  /// True iff v is a vertex id of this graph (0 <= v < n).
  bool valid(Vertex v) const { return v >= 0 && v < n_; }

 private:
  friend class GraphBuilder;

  Vertex n_ = 0;
  std::vector<std::int64_t> offsets_{0};  // size n_+1
  std::vector<Vertex> adj_;               // size 2|E|, sorted per vertex
};

/// Incremental edge-set builder; deduplicates on build.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex n) : n_(n) { SCOL_REQUIRE(n >= 0); }

  /// Adds edge {u, v}; duplicates are merged at build() time. Self-loops are
  /// rejected immediately.
  void add_edge(Vertex u, Vertex v) {
    SCOL_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_, + "endpoint range");
    SCOL_REQUIRE(u != v, + "self-loop");
    edges_.emplace_back(std::min(u, v), std::max(u, v));
  }

  /// Number of vertices the built graph will have.
  Vertex num_vertices() const { return n_; }

  /// Reserves capacity for `m` add_edge calls.
  void reserve(std::size_t m) { edges_.reserve(m); }

  /// Builds the graph in CSR form directly (the from_edges passes + one
  /// compaction pass), merging duplicate edges. O(n + m).
  Graph build() const;

 private:
  Vertex n_;
  std::vector<Edge> edges_;
};

/// Result of taking an induced subgraph: the graph plus the map from new
/// vertex ids to the original ids (new id i corresponds to original
/// `to_original[i]`).
struct InducedSubgraph {
  Graph graph;
  std::vector<Vertex> to_original;
  /// original -> new id, or -1 if the original vertex was dropped.
  std::vector<Vertex> to_induced;
};

/// Induced subgraph on `keep` (mask of size n, nonzero = keep). Span mask,
/// so arena-carved masks pass zero-copy; plain vector<char> converts.
InducedSubgraph induce(const Graph& g, std::span<const char> keep);

/// Induced subgraph on an explicit vertex set (need not be sorted; must not
/// contain duplicates). Past the O(n) relabeling memset this costs only
/// O(k log k + sum deg over the kept vertices). Theorem 1.1 induces its
/// blocks and its all-tight pieces this way; a caller with many small
/// pieces of one graph should keep its own relabel scratch instead, as
/// `BallColorer` does. Result is identical to the mask overload
/// (vertices ordered by original id).
InducedSubgraph induce(const Graph& g, const std::vector<Vertex>& vertices);

/// Relabels vertices by `perm` (new id of v is perm[v]); perm must be a
/// permutation of 0..n-1. Used for ID-robustness tests.
Graph permute(const Graph& g, const std::vector<Vertex>& perm);

/// Disjoint union of two graphs (vertices of b shifted by a.num_vertices()).
Graph disjoint_union(const Graph& a, const Graph& b);

/// Human-readable one-line summary ("n=.. m=.. maxdeg=..").
std::string describe(const Graph& g);

}  // namespace scol

// Randomized generators (all deterministic given an Rng seed): G(n,m),
// random trees/forest unions (arboricity-bounded workloads of Corollary
// 1.4), random d-regular graphs (the "no poor vertices" regime of Theorem
// 1.3), and random Gallai trees (Figure 1 recognition workloads).
#pragma once

#include "scol/graph/graph.h"
#include "scol/util/rng.h"

namespace scol {

/// Uniform-ish random simple graph with exactly m distinct edges.
Graph gnm(Vertex n, std::int64_t m, Rng& rng);

/// Uniform random labelled tree (Prüfer sequence).
Graph random_tree(Vertex n, Rng& rng);

/// Union of `a` independent random spanning trees (duplicate edges merged):
/// arboricity <= a, typically exactly a.
Graph random_forest_union(Vertex n, Vertex a, Rng& rng);

/// Random d-regular simple graph (n > d >= 1, n*d even): a d-regular
/// circulant base randomized by 20 double-edge swaps per edge, each kept
/// only if the graph stays simple. Never rejects or restarts, for any d.
Graph random_regular(Vertex n, Vertex d, Rng& rng);

/// Random Gallai tree built from `blocks` random blocks (odd cycles of
/// length 3..9 or cliques of size 2..max_clique), glued at random cut
/// vertices.
Graph random_gallai_tree(Vertex blocks, Vertex max_clique, Rng& rng);

/// Random connected graph that is NOT a Gallai tree: a random tree plus a
/// few extra edges creating an even cycle or a chorded block.
Graph random_non_gallai(Vertex n, Rng& rng);

}  // namespace scol

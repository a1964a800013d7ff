// (alpha, beta)-ruling sets and ruling forests (Awerbuch–Goldberg–Luby–
// Plotkin [3]), as used by Lemma 3.2.
//
// Ruling set: survivors of the bit-elimination process — iterate over the
// O(log n) id bits; at bit b, candidates whose bit is 1 drop out iff some
// candidate with bit 0 is within distance < alpha. Final survivors are
// pairwise >= alpha apart, and every U-vertex is within alpha*ceil(log2 n)
// of a survivor (each drop moves the "ruler" by < alpha, once per bit).
// A component whose diameter is provably below alpha (twice the
// eccentricity of its least vertex is <= alpha - 1) eliminates to one
// known survivor, computed in closed form; only longer components run the
// per-bit BFS.
//
// Ruling forest: the truncated BFS forest grown from the survivors. This
// yields vertex-disjoint trees (BFS forest), roots = survivors (subset of
// U), depth <= alpha*ceil(log2 n), covering all of U — exactly the
// properties (1)-(3) of §5 with (alpha, alpha log n).
//
// Rounds: alpha per bit phase (truncated BFS) + alpha*log n for the forest,
// priced by that schedule under "ruling-forest" (the BFS runs centrally).
#pragma once

#include "scol/graph/graph.h"
#include "scol/local/rounds.h"

namespace scol {

struct RulingForest {
  Vertex alpha = 0;
  Vertex depth_bound = 0;          // alpha * ceil(log2 n)
  std::vector<Vertex> root;        // per vertex: tree root, or -1
  std::vector<Vertex> parent;      // -1 for roots and non-members
  std::vector<Vertex> depth;       // -1 for non-members
  std::vector<Vertex> roots;       // all roots (the ruling set)
  Vertex max_depth = 0;

  bool in_forest(Vertex v) const { return root[static_cast<std::size_t>(v)] >= 0; }
};

/// Computes an (alpha, alpha*ceil(log2 n))-ruling forest of g with respect
/// to U (mask). Roots are elements of U; every U-vertex lies in a tree.
/// Parameter convention (DESIGN.md): the Rounds handle follows the problem
/// inputs; it prices the schedule and runs the per-vertex passes.
RulingForest ruling_forest(const Graph& g, const std::vector<char>& in_u,
                           Vertex alpha, Rounds& rounds);

}  // namespace scol

// ColoringRequest: the problem statement handed to scol::solve().
//
// A request is (graph, lists-or-k, algorithm name, params). The graph and
// lists are borrowed (non-owning pointers) — the caller keeps them alive
// across the solve() call; requests are cheap to copy and re-dispatch.
//
// The meaning of `k` is per-algorithm but always "the palette-ish number":
// d for Theorem 1.3 (defaults to the min list size), the palette for
// Linial / exact k-coloring, threshold+1 for GPS-style peeling. Algorithms
// that need more (arboricity, genus, epsilon, budgets) read named entries
// from `params`; each registration documents its keys in its summary.
#pragma once

#include <string>

#include "scol/api/params.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"

namespace scol {

/// The problem statement handed to scol::solve(); see the file comment
/// for the meaning of `k` and the borrowing rules.
struct ColoringRequest {
  const Graph* graph = nullptr;           ///< borrowed, required
  const ListAssignment* lists = nullptr;  ///< optional (per-algorithm caps)
  Vertex k = -1;                          ///< optional palette-ish parameter
  std::string algorithm;                  ///< AlgorithmRegistry name
  ParamBag params;                        ///< per-algorithm knobs
};

/// Convenience builders for the two common shapes.
inline ColoringRequest make_request(const std::string& algorithm,
                                    const Graph& g) {
  ColoringRequest req;
  req.algorithm = algorithm;
  req.graph = &g;
  return req;
}

inline ColoringRequest make_request(const std::string& algorithm,
                                    const Graph& g,
                                    const ListAssignment& lists) {
  ColoringRequest req;
  req.algorithm = algorithm;
  req.graph = &g;
  req.lists = &lists;
  return req;
}

}  // namespace scol

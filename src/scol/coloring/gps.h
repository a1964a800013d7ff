// Goldberg–Plotkin–Shannon-style peel-and-recolor coloring [17], the
// baseline the paper's §1.1 improves on for planar graphs (7 colors in
// O(log n) rounds), and the H-partition arboricity coloring of
// Barenboim–Elkin [4] shares the same skeleton (see barenboim_elkin.h).
//
// peel_threshold_coloring(g, A):
//   1. Peel layers L_1, L_2, ...: L_i = vertices of residual degree <= A
//      (one round per layer). For planar graphs and A = 6 each layer holds
//      a >= 1/7 fraction, giving O(log n) layers.
//   2. The union of within-layer graphs has max degree <= A; one global
//      Linial pass colors it with A+1 auxiliary colors (O(log* n) rounds).
//   3. Recolor layers from the last to the first: a vertex in L_i has at
//      most A neighbors in L_i ∪ ... ∪ L_k, so sweeping the A+1 auxiliary
//      classes (A+1 rounds per layer) always finds a free color in
//      {0..A}.
// Total: O(log n * A + log* n) rounds, A+1 colors.
//
// Reports carry the layer count in metrics "layers".
#pragma once

#include "scol/api/report.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/util/executor.h"

namespace scol {

/// Generic peel-and-recolor with degree threshold A; uses A+1 colors.
/// The auxiliary Linial pass runs under the executor (nullptr = serial;
/// bit-identical either way). Throws PreconditionError if peeling stalls
/// (some residual subgraph has min degree > A, i.e. the sparsity promise
/// is violated).
ColoringReport peel_threshold_coloring(const Graph& g, Vertex threshold,
                                       const Executor* executor = nullptr);

/// GPS for planar graphs: 7 colors in O(log n) rounds (threshold 6; every
/// planar graph has >= n/7 vertices of degree <= 6).
ColoringReport gps_planar_seven_coloring(const Graph& g,
                                         const Executor* executor = nullptr);

}  // namespace scol

// Barenboim–Elkin arboricity-based coloring [4] (the §1.3 baseline):
// floor((2+eps)a) + 1 colors in O((a/eps) log n) rounds via H-partitions.
//
// An n-vertex graph of arboricity a has at most 2an/( floor((2+eps)a) + 1 )
// vertices of degree > floor((2+eps)a), so peeling with that threshold
// removes an eps/(2+eps) fraction per layer; the recoloring skeleton is
// shared with gps.h. Corollary 1.4 improves the color count to 2a.
#pragma once

#include "scol/coloring/gps.h"

namespace scol {

/// Barenboim–Elkin: floor((2+eps)a)+1 colors. Throws PreconditionError if
/// the arboricity promise is violated (peel stalls).
ColoringReport barenboim_elkin_coloring(const Graph& g, Vertex arboricity,
                                        double eps,
                                        const Executor* executor = nullptr);

/// The color count floor((2+eps)a) + 1 the algorithm guarantees;
/// requires it to fit a Vertex.
Vertex barenboim_elkin_palette(Vertex arboricity, double eps);

}  // namespace scol

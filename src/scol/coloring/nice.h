// Theorem 6.1: nice list assignments.
//
// A list assignment L is *nice* when every vertex v has |L(v)| >= d(v),
// except that vertices with d(v) <= 2 or whose neighborhood is a clique
// must have |L(v)| >= d(v) + 1. The paper observes that the Theorem 1.3
// machinery goes through with d replaced by the vertex's own list size:
// every vertex is rich, condition-1 witnesses become the *surplus*
// vertices (|L(v)| > deg(v) in the current residual graph — peeling
// manufactures surplus, since a vertex that lost a neighbor keeps its
// list), and the extension step is extend_level_lemma32 with aux_dmax =
// Delta. So nice_list_coloring is Theorem 1.3's driver, peel_and_extend
// (sparse.h), under PeelRule::kSurplus with aux_dmax = max(Delta, 1); the
// radius, the Arena, the peel cap (SparseOptions::max_peels) and the stall
// check are the driver's. Round complexity O(Delta^2 log^3 n).
//
// This also yields Corollary 2.1 (all lists of size Delta) — see
// derived.h for the clique-aware entry point.
//
// Reports carry the peel count in metrics "peels" and the ball radius in
// metrics "radius".
#pragma once

#include "scol/api/report.h"
#include "scol/coloring/sparse.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"

namespace scol {

/// True iff L is nice for g.
bool is_nice_assignment(const Graph& g, const ListAssignment& lists);

/// Theorem 6.1: finds an L-list-coloring for a nice list assignment L.
/// Throws PreconditionError if L is not nice, or if the peel hits its cap
/// or stalls (at the paper's radius niceness rules a stall out).
ColoringReport nice_list_coloring(const Graph& g, const ListAssignment& lists,
                                  const SparseOptions& opts = {});

}  // namespace scol

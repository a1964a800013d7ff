// Girth (length of a shortest cycle); returns -1 for forests ("infinite").
// Used by Proposition 2.2 / Corollary 4.2 experiments and generator tests.
#pragma once

#include "scol/graph/graph.h"

namespace scol {

/// Girth via BFS from every vertex. Each root's BFS costs O(what it
/// visits) — scratch state is reset only for the vertices it queued — and
/// the root loop stops at the first triangle (3 is the minimum). With
/// `limit` < 0 (default): the exact girth, O(n·m) worst case, -1 if
/// acyclic. With `limit` >= 3: the exact girth when it is <= limit, else
/// -1 (certifying girth > limit) — each BFS is truncated at depth
/// ceil(limit/2), so a root visits only its ball of that radius (at most
/// Δ^ceil(limit/2) vertices); the structure probe (io/probe.h) uses this
/// form.
Vertex girth(const Graph& g, Vertex limit = -1);

/// True iff no triangle exists (girth > 3 or acyclic): girth(g, 3) != 3.
bool triangle_free(const Graph& g);

}  // namespace scol

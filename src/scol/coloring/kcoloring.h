// Deterministic distributed (Δ+1)-coloring: Linial color reduction with
// polynomial cover-free set families, then one-color-class-per-round
// reduction to the target palette.
//
// This is the substrate the main algorithm's Lemma-3.2 step "compute a
// partition of H into d+1 stable sets" uses (the paper cites the
// O(d log n)-round algorithm of Goldberg–Plotkin–Shannon; ours runs in
// O(log* n + K) rounds where K = O((Δ log Δ)²) is the post-Linial palette —
// also polylog for fixed Δ; DESIGN.md documents the substitution).
//
// Round accounting: starting from the n-coloring by unique IDs, every
// Linial step is one synchronous round (each node needs only its neighbors'
// current colors); the final reduction spends one round per eliminated
// color value — the schedule (which value is processed in which round) is a
// deterministic function of (n, Δ), so no coordination rounds are needed.
#pragma once

#include <string_view>

#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/local/rounds.h"

namespace scol {

struct DegreeColoringResult {
  Coloring coloring;   // colors in [0, palette)
  Vertex palette = 0;  // == target (dmax+1) unless n is smaller
};

/// Proper coloring with colors {0..dmax} of a graph with max degree <=
/// dmax. Deterministic (identical under every executor); initial coloring
/// is the vertex ids. Every round runs and is charged through `rounds`
/// under `phase`, which is opened even when no round is needed.
/// Parameter convention (DESIGN.md): the Rounds handle follows the
/// problem inputs; the phase label is the last default.
DegreeColoringResult distributed_degree_coloring(
    const Graph& g, Vertex dmax, Rounds& rounds,
    std::string_view phase = "k-coloring");

/// One Linial reduction step's target palette from k colors at max degree
/// d: the minimum q^2 over valid (q, t) with q prime, q > d*t and
/// q^{t+1} >= k. Exposed for tests.
std::int64_t linial_next_palette(std::int64_t k, Vertex d);

}  // namespace scol

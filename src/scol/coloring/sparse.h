// The paper's main algorithm (Theorem 1.3).
//
// Given an n-vertex graph G and an integer d >= max(3, mad(G)), together
// with a d-list-assignment L, the algorithm either exhibits a (d+1)-clique
// or produces an L-list-coloring, deterministically, in
// O(poly(d) polylog n) LOCAL rounds (O(d^4 log^3 n) in the paper's
// accounting; the ledger records this library's exact charges — see
// DESIGN.md for the one deliberate substrate substitution in the
// H-coloring step).
//
// Structure (paper §3):
//   peel:    repeatedly compute the happy set A_i of the residual graph
//            (Lemma 3.1 guarantees |A_i| >= n_i/(3d)^3) and remove it;
//   extend:  walking back i = k..1, extend the coloring of G_i - A_i to
//            G_i (Lemma 3.2): build an (alpha, alpha log n)-ruling forest
//            of G_i[R] w.r.t. A_i, uncolor the forest T, shrink lists by
//            outside colors (Observation 5.1), (d+1)-color H = G[T],
//            color T root-ward by (depth, class) sweeps, then uncolor the
//            radius-rho balls around the roots and finish each with the
//            constructive Theorem 1.1 (the root's happiness supplies the
//            needed surplus vertex or non-Gallai block).
//
// Both halves are one driver, peel_and_extend, shared with Theorem 6.1
// (nice.h); list_color_sparse adds input checks and clique detection.
#pragma once

#include <optional>

#include "scol/coloring/happy.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/local/rounds.h"
#include "scol/util/arena.h"
#include "scol/util/executor.h"

namespace scol {

struct SparseOptions {
  /// Ball-radius constant c (radius = ceil(c ln n)). The paper's proof
  /// needs c = 12/ln(6/5); smaller values are sound-but-maybe-stalling
  /// (used by the ablation bench, which catches the stall exception).
  double ball_constant = kPaperBallConstant;
  /// If > 0, use exactly this ball radius (overrides ball_constant).
  Vertex radius_override = -1;
  /// Safety cap on peel iterations (default 4n + 16).
  Vertex max_peels = -1;
  /// Executor for the per-vertex hot scans (classification, list shrink,
  /// H-coloring, root-ball finishing); nullptr = serial. Results are
  /// bit-identical across executors.
  const Executor* executor = nullptr;
  /// Scratch arena for level masks and shrunken palettes; nullptr = a
  /// run-local arena. RunContext threads its own through here so campaign
  /// jobs reuse chunks.
  Arena* arena = nullptr;
};

struct PeelRecord {
  Vertex graph_size = 0;
  Vertex num_rich = 0;
  Vertex num_poor = 0;
  Vertex num_happy = 0;  // |A_i|
  Vertex num_sad = 0;    // |S_i|
};

struct SparseResult {
  /// The d-list-coloring, unless a clique was found.
  std::optional<Coloring> coloring;
  /// A (d+1)-clique certificate, if one exists and was found first.
  std::optional<std::vector<Vertex>> clique;
  RoundLedger ledger;
  std::vector<PeelRecord> peels;
  Vertex radius = 0;  // ball radius rho used
};

/// Theorem 1.3. Throws PreconditionError if d < 3, lists are smaller than
/// d, or peel_and_extend fails (at the paper's radius a stall certifies
/// that the promise d >= mad(G) was violated).
SparseResult list_color_sparse(const Graph& g, Vertex d,
                               const ListAssignment& lists,
                               const SparseOptions& opts = {});

/// One peel level's masks, in original vertex ids: the residual graph G_i
/// (alive), its rich set R_i, and its happy set A_i. Non-owning views —
/// peel_and_extend carves them from its arena; ad-hoc callers (tests,
/// benches) wrap plain vectors, which convert implicitly.
struct LevelMasks {
  std::span<const char> alive;
  std::span<const char> rich;
  std::span<const char> happy;
};

/// The Lemma 3.2 extension step (exposed for the extension-in-isolation
/// tests and bench): given a partial coloring of G_i - A_i
/// (alive, non-happy vertices colored; A_i uncolored), extends it to all of
/// G_i, possibly recoloring parts of G_i - A_i. `aux_dmax` bounds the max
/// degree of G_i[R_i] and sizes the auxiliary stable-set partition (d for
/// Theorem 1.3, max degree for Theorem 6.1). Every vertex of A_i must be
/// happy w.r.t. radius rho in G_i[R_i].
void extend_level_lemma32(const Graph& g, const LevelMasks& level,
                          const ListAssignment& lists, Vertex aux_dmax,
                          Vertex rho, Coloring& colors, Rounds& rounds,
                          Arena* arena = nullptr);

/// Each level's rich set R_i and condition-1 witnesses W_i inside G_i
/// (degrees are deg_{G_i}; d = aux_dmax).
enum class PeelRule {
  kDegree,   ///< Theorem 1.3: R_i = {deg <= d}, W_i = {deg <= d - 1}
  kSurplus,  ///< Theorem 6.1: R_i = G_i, W_i = {|L(v)| > deg}
};

/// rho: opts.radius_override if positive, else ceil(opts.ball_constant ln n).
Vertex peel_ball_radius(Vertex n, const SparseOptions& opts);

/// The peel-and-extend driver of Theorems 1.3 and 6.1: peels happy sets
/// under `rule` at radius rho (one "peel-balls" charge and PeelRecord per
/// level), then extends back level by level with extend_level_lemma32.
/// Throws PreconditionError past opts.max_peels levels (default 4n + 16) or
/// on a stall, which certifies a violated promise only at the paper's radius.
Coloring peel_and_extend(const Graph& g, const ListAssignment& lists,
                         PeelRule rule, Vertex aux_dmax, Vertex rho,
                         const SparseOptions& opts, Rounds& rounds,
                         std::vector<PeelRecord>& peels);

}  // namespace scol

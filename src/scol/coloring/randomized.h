// Randomized distributed list-coloring (paper §6, Question 6.2 remark).
//
// The paper notes that the simple randomized (Δ+1)-coloring algorithm
// (see [5]) adapts to the list setting: every uncolored vertex proposes a
// uniformly random color from its list minus its colored neighbors'
// colors; a proposal is kept iff no neighbor proposed the same color in
// the same round. With |L(v)| >= deg(v)+1 each vertex survives a round
// with probability >= 1/4, so all vertices finish in O(log n) rounds
// w.h.p. — an exponential round gap versus the deterministic lower bounds
// of §2, which this library measures (bench_ablation).
//
// One propose/resolve kernel serves both this solver and the sampled-
// palette attempts of the `*-sparsified` family (coloring/sparsify.h);
// they differ only in what happens when a vertex runs out of free colors
// or the iteration cap is hit (OnExhausted).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "scol/api/report.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/local/rounds.h"
#include "scol/util/executor.h"
#include "scol/util/rng.h"

namespace scol {

/// What propose_resolve_coloring does when some vertex has no free list
/// color left, or the run has not converged after `max_rounds` iterations.
enum class OnExhausted {
  kCheckFail,  ///< throw InternalError: (deg+1)-lists make this a bug
  kAbandon,    ///< return nullopt: a sampled palette may legitimately fail
};

/// The propose step's pick of a uniform free list color, in
/// O(deg log |L|) rather than O(|L|): block() collects the colored
/// neighbors' colors (any order, repeats allowed); free_count(list)
/// binary-searches each in the canonical list, sorts and dedups the
/// positions found, and returns |L| minus their number; pick(r) is the
/// r-th free color of that list (0-based, list order), r stepped past the
/// found positions. One instance serves a whole chunk of vertices; clear()
/// keeps capacity.
class FreeListPick {
 public:
  void clear() { blocked_.clear(); }
  void block(Color c) { blocked_.push_back(c); }
  /// The number of colors of `list` (sorted, duplicate-free) not blocked.
  /// `list` must outlive the pick() calls that follow.
  std::size_t free_count(std::span<const Color> list);
  /// The r-th free color of the last free_count() list; r < that count.
  Color pick(std::size_t r) const;

 private:
  std::vector<Color> blocked_;
  std::vector<std::size_t> hits_;  // list positions of blocked colors, sorted
  std::span<const Color> list_;
};

/// The randomized propose/resolve kernel. Each iteration, every uncolored
/// vertex proposes a uniform color from L(v) minus its colored neighbors'
/// colors, drawn from Rng::stream(base_seed, iteration << 32 | v); a
/// proposal is kept iff no neighbor proposed the same color. The propose
/// and the resolve are one Rounds::round each under "randomized-coloring"
/// (also on abandon), so an iteration costs 2 LOCAL rounds. Bit-identical
/// under every executor.
std::optional<Coloring> propose_resolve_coloring(
    const Graph& g, const ListAssignment& lists, std::uint64_t base_seed,
    Rounds& rounds, int max_rounds, OnExhausted on_exhausted);

/// Randomized (deg+1)-list-coloring: requires |L(v)| >= deg(v)+1 for all
/// v. Each propose/resolve iteration costs 2 LOCAL rounds (charged to the
/// report ledger as "randomized-coloring"; the iteration count is in
/// metrics "iterations"). Throws InternalError if not done after
/// max_rounds iterations (probability ~ n^-c). Randomness is drawn from
/// per-(vertex, round) streams derived from one value of `rng`, so the
/// report is a deterministic function of the seed and identical under
/// every executor.
ColoringReport randomized_list_coloring(const Graph& g,
                                        const ListAssignment& lists, Rng& rng,
                                        const Executor* executor = nullptr,
                                        int max_rounds = 40'000);

}  // namespace scol

#include "scol/coloring/randomized.h"

#include <atomic>

#include "scol/coloring/small_color_set.h"
#include "scol/util/executor.h"

namespace scol {

constexpr std::string_view kPhase = "randomized-coloring";

std::optional<Coloring> propose_resolve_coloring(
    const Graph& g, const ListAssignment& lists, std::uint64_t base_seed,
    Rounds& rounds, int max_rounds, OnExhausted on_exhausted) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(lists.size() == n);
  SCOL_REQUIRE(lists.canonical(), + "lists must be sorted unique");
  rounds.charge(kPhase, 0);

  Coloring coloring = empty_coloring(n);
  std::int64_t iters = 0;
  std::atomic<std::int64_t> colored{0};
  // Whether ANY vertex is stuck this round is order-independent, so the
  // exhaustion verdict is deterministic under every executor.
  std::atomic<bool> stuck{false};
  std::vector<Color> proposal(static_cast<std::size_t>(n), kUncolored);
  const auto exhausted = [&](const char* why) -> std::optional<Coloring> {
    SCOL_CHECK(on_exhausted == OnExhausted::kAbandon, + why);
    return std::nullopt;
  };

  while (colored.load(std::memory_order_relaxed) < n) {
    if (iters >= max_rounds)
      return exhausted(
          "randomized coloring did not converge (astronomically unlikely)");
    const std::uint64_t round_tag = static_cast<std::uint64_t>(iters) << 32;
    // Propose: a uniform color from L(v) minus colored neighbors. One
    // forbidden set per chunk serves all of its vertices, and the pick is
    // the r-th free list color, so no vertex allocates.
    rounds.round(
        kPhase, static_cast<std::size_t>(n),
        [&](std::size_t begin, std::size_t end) {
          SmallColorSet blocked;
          for (std::size_t i = begin; i < end; ++i) {
            const Vertex v = static_cast<Vertex>(i);
            proposal[i] = kUncolored;
            if (coloring[i] != kUncolored) continue;
            blocked.clear();
            for (Vertex w : g.neighbors(v)) {
              const Color cw = coloring[static_cast<std::size_t>(w)];
              if (cw != kUncolored) blocked.insert(cw);
            }
            const auto list = lists.of(v);
            std::size_t free = 0;
            for (Color c : list) free += blocked.contains(c) ? 0 : 1;
            if (free == 0) {
              stuck.store(true, std::memory_order_relaxed);
              continue;
            }
            Rng vr = Rng::stream(base_seed,
                                 round_tag | static_cast<std::uint64_t>(v));
            std::uint64_t r = vr.below(free);
            for (Color c : list) {
              if (blocked.contains(c)) continue;
              if (r-- == 0) {
                proposal[i] = c;
                break;
              }
            }
          }
        });
    // Resolve: keep the proposal iff no neighbor proposed the same color.
    rounds.round(
        kPhase, static_cast<std::size_t>(n),
        [&](std::size_t begin, std::size_t end) {
          std::int64_t local = 0;
          for (std::size_t i = begin; i < end; ++i) {
            const Color mine = proposal[i];
            if (mine == kUncolored) continue;
            bool clash = false;
            for (Vertex w : g.neighbors(static_cast<Vertex>(i))) {
              if (proposal[static_cast<std::size_t>(w)] == mine) {
                clash = true;
                break;
              }
            }
            if (!clash) {
              coloring[i] = mine;
              ++local;
            }
          }
          if (local > 0) colored.fetch_add(local, std::memory_order_relaxed);
        });
    ++iters;
    if (stuck.load(std::memory_order_relaxed))
      return exhausted("(deg+1)-lists always leave a free color");
  }
  return coloring;
}

ColoringReport randomized_list_coloring(const Graph& g,
                                        const ListAssignment& lists, Rng& rng,
                                        const Executor* executor,
                                        int max_rounds) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(lists.size() == n);
  for (Vertex v = 0; v < n; ++v)
    SCOL_REQUIRE(static_cast<Vertex>(lists.of(v).size()) >= g.degree(v) + 1,
                 + "randomized list coloring needs (deg+1)-lists");

  // One base seed drawn from the caller's generator; every (vertex, round)
  // pair then gets its own decorrelated stream, so the draws do not depend
  // on vertex visitation order and parallel runs match serial runs bit for
  // bit (and the result is a deterministic function of the caller's seed).
  ColoringReport out;
  Rounds rounds(out.ledger, executor);
  std::optional<Coloring> coloring =
      propose_resolve_coloring(g, lists, rng.next(), rounds, max_rounds,
                               OnExhausted::kCheckFail);

  out.status = SolveStatus::kColored;
  out.coloring = std::move(*coloring);
  out.metrics.set_int("iterations", out.ledger.phase(kPhase) / 2);
  out.sync_derived_fields();
  return out;
}

}  // namespace scol

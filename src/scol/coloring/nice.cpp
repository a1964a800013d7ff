#include "scol/coloring/nice.h"

#include <algorithm>

namespace scol {

bool is_nice_assignment(const Graph& g, const ListAssignment& lists) {
  if (lists.size() != g.num_vertices()) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex deg = g.degree(v);
    const auto need_plus_one = [&] {
      if (deg <= 2) return true;
      // Neighborhood a clique?
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < nb.size(); ++i)
        for (std::size_t j = i + 1; j < nb.size(); ++j)
          if (!g.has_edge(nb[i], nb[j])) return false;
      return true;
    };
    const Vertex have = static_cast<Vertex>(lists.of(v).size());
    if (have < deg) return false;
    if (have < deg + 1 && need_plus_one()) return false;
  }
  return true;
}

ColoringReport nice_list_coloring(const Graph& g, const ListAssignment& lists,
                                  const SparseOptions& opts) {
  const Vertex n = g.num_vertices();
  SCOL_REQUIRE(lists.canonical(), + "lists must be sorted unique");
  SCOL_REQUIRE(is_nice_assignment(g, lists), + "list assignment is not nice");

  ColoringReport out = ColoringReport::colored(empty_coloring(n));
  if (n == 0) return out;
  const Vertex radius = peel_ball_radius(n, opts);
  out.metrics.set_int("radius", radius);
  Rounds rounds(out.ledger, opts.executor);
  std::vector<PeelRecord> peels;
  out.coloring =
      peel_and_extend(g, lists, PeelRule::kSurplus,
                      std::max<Vertex>(g.max_degree(), 1), radius, opts,
                      rounds, peels);
  out.metrics.set_int("peels", static_cast<std::int64_t>(peels.size()));
  out.sync_derived_fields();
  return out;
}

}  // namespace scol

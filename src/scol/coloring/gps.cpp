#include "scol/coloring/gps.h"

#include <algorithm>

#include "scol/coloring/kcoloring.h"

namespace scol {

ColoringReport peel_threshold_coloring(const Graph& g, Vertex threshold,
                                       const Executor* executor) {
  SCOL_REQUIRE(threshold >= 1);
  const Vertex n = g.num_vertices();
  ColoringReport out = ColoringReport::colored(empty_coloring(n));
  out.metrics.set_int("layers", 0);
  Coloring& coloring = *out.coloring;
  if (n == 0) return out;
  Rounds rounds(out.ledger, executor);

  // --- Peel layers (one round each: a vertex sees which neighbors are
  // still alive and compares its residual degree to the threshold). ---
  std::vector<Vertex> layer(static_cast<std::size_t>(n), -1);
  std::vector<Vertex> residual_degree(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) residual_degree[static_cast<std::size_t>(v)] = g.degree(v);
  Vertex remaining = n;
  Vertex current_layer = 0;
  while (remaining > 0) {
    std::vector<Vertex> peeled;
    for (Vertex v = 0; v < n; ++v) {
      if (layer[static_cast<std::size_t>(v)] < 0 &&
          residual_degree[static_cast<std::size_t>(v)] <= threshold)
        peeled.push_back(v);
    }
    if (peeled.empty()) {
      throw PreconditionError(
          "peel_threshold_coloring: residual min degree exceeds threshold "
          "(sparsity promise violated)");
    }
    for (Vertex v : peeled) layer[static_cast<std::size_t>(v)] = current_layer;
    for (Vertex v : peeled)
      for (Vertex w : g.neighbors(v))
        if (layer[static_cast<std::size_t>(w)] < 0)
          --residual_degree[static_cast<std::size_t>(w)];
    remaining -= static_cast<Vertex>(peeled.size());
    ++current_layer;
  }
  out.metrics.set_int("layers", current_layer);
  rounds.charge("peel", current_layer);

  // --- Auxiliary (threshold+1)-coloring of the union of within-layer
  // graphs (max degree <= threshold), one global pass. ---
  std::vector<Edge> within;
  for (const auto& [u, v] : g.edges())
    if (layer[static_cast<std::size_t>(u)] == layer[static_cast<std::size_t>(v)])
      within.push_back({u, v});
  const Graph layer_graph = Graph::from_edges(n, within);
  const DegreeColoringResult aux = distributed_degree_coloring(
      layer_graph, threshold, rounds, "aux-coloring");

  // --- Recolor from the last layer to the first, one auxiliary class per
  // round. ---
  for (Vertex li = current_layer - 1; li >= 0; --li) {
    for (Color cls = 0; cls <= static_cast<Color>(threshold); ++cls) {
      for (Vertex v = 0; v < n; ++v) {
        if (layer[static_cast<std::size_t>(v)] != li ||
            aux.coloring[static_cast<std::size_t>(v)] != cls)
          continue;
        std::vector<char> used(static_cast<std::size_t>(threshold) + 1, 0);
        for (Vertex w : g.neighbors(v)) {
          // Constraining neighbors: same or later layers, already colored.
          const Color cw = coloring[static_cast<std::size_t>(w)];
          if (cw != kUncolored && cw <= static_cast<Color>(threshold))
            used[static_cast<std::size_t>(cw)] = 1;
        }
        Color pick = 0;
        while (used[static_cast<std::size_t>(pick)]) ++pick;
        SCOL_CHECK(pick <= static_cast<Color>(threshold),
                   + "a free color must exist below the threshold");
        coloring[static_cast<std::size_t>(v)] = pick;
      }
    }
  }
  rounds.charge("recolor",
                static_cast<std::int64_t>(current_layer) * (threshold + 1));
  out.sync_derived_fields();
  return out;
}

ColoringReport gps_planar_seven_coloring(const Graph& g,
                                         const Executor* executor) {
  return peel_threshold_coloring(g, 6, executor);
}

}  // namespace scol

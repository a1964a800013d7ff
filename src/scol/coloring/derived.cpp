#include "scol/coloring/derived.h"

#include <cmath>

#include "scol/coloring/sdr.h"
#include "scol/graph/cliques.h"
#include "scol/graph/components.h"

namespace scol {
namespace {

ColoringReport run_with_promise(const Graph& g, Vertex d,
                                const ListAssignment& lists,
                                const SparseOptions& opts,
                                const char* promise) {
  SparseResult r = list_color_sparse(g, d, lists, opts);
  if (r.clique.has_value()) {
    throw PreconditionError(std::string("promise violated (") + promise +
                            "): found a K_{d+1}");
  }
  return report_from_sparse(std::move(r), "");
}

}  // namespace

ColoringReport planar_six_list_coloring(const Graph& g,
                                        const ListAssignment& lists,
                                        const SparseOptions& opts) {
  return run_with_promise(g, 6, lists, opts, "planar => mad < 6, no K_7");
}

ColoringReport triangle_free_planar_four_list_coloring(
    const Graph& g, const ListAssignment& lists, const SparseOptions& opts) {
  return run_with_promise(g, 4, lists, opts,
                          "triangle-free planar => mad < 4, no K_5");
}

ColoringReport girth_six_planar_three_list_coloring(const Graph& g,
                                                    const ListAssignment& lists,
                                                    const SparseOptions& opts) {
  return run_with_promise(g, 3, lists, opts,
                          "girth-6 planar => mad < 3, no K_4");
}

ColoringReport arboricity_list_coloring(const Graph& g, Vertex arboricity,
                                        const ListAssignment& lists,
                                        const SparseOptions& opts) {
  SCOL_REQUIRE(arboricity >= 2, + "Corollary 1.4 needs a >= 2");
  return run_with_promise(g, 2 * arboricity, lists, opts,
                          "arboricity a => mad <= 2a, no K_{2a+1}");
}

Vertex heawood_list_bound(Vertex euler_genus) {
  SCOL_REQUIRE(euler_genus >= 1);
  return static_cast<Vertex>(std::floor(
      (7.0 + std::sqrt(24.0 * static_cast<double>(euler_genus) + 1.0)) / 2.0));
}

ColoringReport genus_list_coloring(const Graph& g, Vertex euler_genus,
                                   const ListAssignment& lists,
                                   const SparseOptions& opts) {
  const Vertex h = heawood_list_bound(euler_genus);
  // Heawood: mad <= (5 + sqrt(24*gamma + 1))/2 = H - 1 <= H, and a K_{H+1}
  // would exceed the genus bound.
  return run_with_promise(g, h, lists, opts,
                          "Euler genus => mad <= H(g) - 1, no K_{H+1}");
}

bool heawood_bound_is_tight(Vertex euler_genus) {
  SCOL_REQUIRE(euler_genus >= 1);
  // (5 + sqrt(24g+1))/2 integral <=> 24g+1 is an odd perfect square.
  const std::int64_t target = 24 * static_cast<std::int64_t>(euler_genus) + 1;
  std::int64_t root = static_cast<std::int64_t>(std::sqrt(static_cast<double>(target)));
  while (root * root < target) ++root;
  while (root * root > target) --root;
  return root * root == target && (5 + root) % 2 == 0;
}

ColoringReport genus_list_coloring_sharp(const Graph& g, Vertex euler_genus,
                                         const ListAssignment& lists,
                                         const SparseOptions& opts) {
  SCOL_REQUIRE(heawood_bound_is_tight(euler_genus),
               + "second part of Cor. 2.11 needs (5+sqrt(24g+1))/2 integral");
  const Vertex h = heawood_list_bound(euler_genus);
  // Here mad <= H - 1 exactly, so d = H - 1 satisfies the promise; the only
  // possible K_{d+1} = K_{H} is the complete-graph exception, which is
  // surfaced as the clique certificate.
  return report_from_sparse(list_color_sparse(g, h - 1, lists, opts), "");
}

ColoringReport delta_list_coloring(const Graph& g, const ListAssignment& lists,
                                   const SparseOptions& opts) {
  const Vertex delta = g.max_degree();
  SCOL_REQUIRE(delta >= 3, + "Corollary 2.1 needs max degree >= 3");
  SCOL_REQUIRE(lists.size() == g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    SCOL_REQUIRE(static_cast<Vertex>(lists.of(v).size()) >= delta,
                 + "need Delta-lists");

  RoundLedger ledger;
  Rounds rounds(ledger, opts.executor);
  Coloring colors = empty_coloring(g.num_vertices());

  // K_{Delta+1} components are exactly the obstructions (a Delta-regular
  // Gallai tree with Delta >= 3 is a clique, footnote 2 of the paper);
  // handle them by SDR, and run Theorem 1.3 with d = Delta >= mad(G) on the
  // rest.
  const Components comps = connected_components(g);
  std::vector<char> keep(static_cast<std::size_t>(g.num_vertices()), 1);
  for (const auto& comp : comps.groups()) {
    if (static_cast<Vertex>(comp.size()) != delta + 1) continue;
    if (!is_clique(g, comp)) continue;
    const auto sdr = color_clique_by_sdr(g, comp, lists);
    rounds.charge("sdr-cliques", 2);
    if (!sdr.has_value()) {
      // Certificate: no L-coloring exists.
      ColoringReport out = ColoringReport::infeasible(comp, "no-sdr-clique");
      out.ledger = std::move(ledger);
      out.sync_derived_fields();
      return out;
    }
    for (Vertex v : comp) {
      colors[static_cast<std::size_t>(v)] = (*sdr)[static_cast<std::size_t>(v)];
      keep[static_cast<std::size_t>(v)] = 0;
    }
  }

  const InducedSubgraph rest = induce(g, keep);
  if (rest.graph.num_vertices() > 0) {
    const ListAssignment rest_lists = lists.select(rest.to_original);
    SparseResult r = list_color_sparse(rest.graph, delta, rest_lists, opts);
    SCOL_CHECK(!r.clique.has_value(),
               + "K_{Delta+1} must be a full component at max degree Delta");
    ledger.merge(r.ledger);
    for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
      colors[static_cast<std::size_t>(
          rest.to_original[static_cast<std::size_t>(x)])] =
          (*r.coloring)[static_cast<std::size_t>(x)];
  }

  ColoringReport out = ColoringReport::colored(std::move(colors));
  out.ledger = std::move(ledger);
  out.sync_derived_fields();
  return out;
}

}  // namespace scol

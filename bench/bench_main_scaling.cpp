// E1 — Theorem 1.3: round complexity scaling, driven through scol::solve.
//
// Paper claims: O(d^4 log^3 n) rounds in general, O(d^2 log^3 n) when the
// max degree is at most d; peel count k = O(d^3 log n) in general,
// O(d log n) degree-bounded. We measure total LOCAL rounds and peel counts
// across n for several d and report rounds / log^3(n) — a polylog shape
// means the normalized column stays near-constant (it can even fall, since
// with the paper radius most instances peel in O(1) levels).
//
//   $ ./bench_main_scaling
#include <cmath>
#include <iostream>
#include <string>

#include "scol/scol.h"

using namespace scol;

int main(int argc, char**) {
  if (argc > 1) {
    std::cerr << "usage: bench_main_scaling\n";
    return 2;
  }
  std::cout << "E1 / Theorem 1.3: rounds and peels vs n (uniform d-lists)\n"
            << "families: d-regular (degree-bounded branch), union-of-forests"
               " and G(n,m) (general branch)\n"
            << "driven through solve(\"sparse\") with validating contexts\n\n";

  RunContext ctx;  // one context: every row reuses the same warmed arena
  ctx.validate = true;  // solve() re-checks every coloring independently
  Table t({"family", "d", "n", "peels", "rounds", "rounds/log2^3(n)",
           "wall_ms", "colors<=d", "valid"});

  Rng rng(20260610);
  const auto run = [&](const char* family, const Graph& g, Vertex d) {
    const ListAssignment lists =
        uniform_lists(g.num_vertices(), static_cast<Color>(d));
    ColoringRequest req = make_request("sparse", g, lists);
    req.k = d;
    const ColoringReport r = solve(req, ctx);
    const double l = std::log2(static_cast<double>(g.num_vertices()));
    t.row(family, d, g.num_vertices(), r.metrics.get_int("peels", -1),
          r.rounds, static_cast<double>(r.rounds) / (l * l * l), r.wall_ms,
          r.colors_used <= d ? "yes" : "NO", r.ok() ? "yes" : "NO");
  };

  for (Vertex n : {256, 512, 1024, 2048, 4096}) {
    run("regular-d3", random_regular(n, 3, rng), 3);
    run("regular-d4", random_regular(n, 4, rng), 4);
    run("regular-d6", random_regular(n, 6, rng), 6);
  }
  for (Vertex n : {256, 512, 1024, 2048}) {
    run("forests-a2", random_forest_union(n, 2, rng), 4);
    run("gnm-m=1.4n", gnm(n, static_cast<std::int64_t>(1.4 * n), rng), 4);
  }
  t.print();

  {
    std::cout << "\nround breakdown at n=2048, d=4 (regular):\n";
    const Graph g = random_regular(2048, 4, rng);
    const ListAssignment lists = uniform_lists(2048, 4);
    ColoringRequest req = make_request("sparse", g, lists);
    req.k = 4;
    const ColoringReport r = solve(req, ctx);
    for (const auto& [phase, rounds] : r.ledger.breakdown())
      std::cout << "  " << phase << ": " << rounds << "\n";
  }
  std::cout << "\nShape check: the normalized column stays bounded (polylog),"
               "\nthe d=6 rows sit above d=3/d=4 (poly(d) factor), and the\n"
               "'sweep' phase dominates — matching the paper's"
               " O(d log^2 n)-per-level extension cost.\n";

  // Shard curves: one sparse solve per n, priced on p-shard partitions.
  // Rounds are the ledger's and so invariant in p; messages are rounds x
  // plan.boundary_pairs, scaling with the boundary the partition induces
  // — the exchange cost a real multi-engine deployment would pay.
  std::cout << "\nexchange cost on p-shard range partitions (regular d=4):\n";
  {
    Table t({"n", "shards", "rounds", "messages", "boundary", "cut_edges"});
    Rng rng(20260610);
    for (Vertex n : {1024, 4096}) {
      const Graph g = random_regular(n, 4, rng);
      const ListAssignment lists =
          uniform_lists(g.num_vertices(), static_cast<Color>(4));
      ColoringRequest req = make_request("sparse", g, lists);
      req.k = 4;
      const ColoringReport r = solve(req, ctx);
      for (int p : {1, 2, 4, 8}) {
        const ShardPlan plan = ShardPlan::build(g, p);
        t.row(n, p, r.rounds, r.rounds * plan.boundary_pairs,
              plan.boundary_vertices, plan.cut_edges);
      }
    }
    t.print();
  }
  return 0;
}

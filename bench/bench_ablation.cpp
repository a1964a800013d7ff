// E10 — ablations on the design choices DESIGN.md calls out, driven
// through the unified solver API (radius overrides travel as request
// params; stalls come back as kFailed reports instead of exceptions).
//
//  (a) Ball-radius constant c: the proof needs c = 12/ln(6/5) ~ 65.8; how
//      small can the radius get before peeling stalls, and what does the
//      theory-faithful radius cost in rounds?
//  (b) Ruling parameter alpha = 2*rho + 2: larger alpha means fewer, more
//      separated roots but deeper trees (sweep rounds scale with depth
//      bound * (d+1)).
//  (c) Peel-count behaviour at small radii (the O(d^3 log n) general bound
//      becomes visible only when sad/poor vertices survive peels).
//  (d) Randomized vs deterministic round counts (paper §6).
#include <iostream>

#include "scol/scol.h"

using namespace scol;

int main() {
  std::cout << "E10(a): ball radius vs success and cost (grid 32x32, d=4; "
               "regular-4 n=1024)\n\n";
  Rng rng(20260617);
  const Graph grid_g = grid(32, 32);
  const Graph reg = random_regular(1024, 4, rng);

  RunContext ctx;
  ctx.validate = true;

  Table t({"graph", "radius", "outcome", "peels", "rounds"});
  const auto try_radius = [&](const char* name, const Graph& g,
                              Vertex radius) {
    const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
    ColoringRequest req = make_request("sparse", g, lists);
    req.k = 4;
    req.params.set_int("radius", radius);
    const ColoringReport r = solve(req, ctx);
    if (r.ok()) {
      t.row(name, radius, "ok", r.metrics.get_int("peels", -1), r.rounds);
    } else {
      t.row(name, radius, "STALL", "-", "-");
    }
  };
  for (Vertex radius : {1, 2, 3, 6, 12, 48}) try_radius("grid", grid_g, radius);
  try_radius("grid", grid_g, paper_ball_radius(grid_g.num_vertices()));
  for (Vertex radius : {1, 2, 3, 6, 12, 48}) try_radius("regular4", reg, radius);
  try_radius("regular4", reg, paper_ball_radius(reg.num_vertices()));
  t.print();

  std::cout << "\nE10(b): ruling alpha vs forest shape and sweep cost "
               "(regular-4, n=1024, radius=6)\n\n";
  Table t2({"alpha", "roots", "depth bound", "max depth", "ruling rounds"});
  {
    std::vector<char> u(1024, 0);
    Rng rng2(5);
    for (Vertex v = 0; v < 1024; ++v) u[static_cast<std::size_t>(v)] = rng2.chance(0.4);
    for (Vertex alpha : {2, 4, 8, 16, 32}) {
      RoundLedger ledger;
      Rounds rounds(ledger);
      const RulingForest rf = ruling_forest(reg, u, alpha, rounds);
      t2.row(alpha, rf.roots.size(), rf.depth_bound, rf.max_depth,
             ledger.total());
    }
  }
  t2.print();

  std::cout << "\nE10(c): exactness fast paths — happy-set wall time with "
               "and without shallow-component short-circuit\n(measured "
               "indirectly: component diameter vs radius)\n\n";
  Table t3({"graph", "radius", "|A|", "|S|", "note"});
  {
    const Graph c = cycle(400);
    for (Vertex radius : {2, 100, 300}) {
      const HappyAnalysis h = compute_happy_set(c, 3, radius);
      t3.row("C_400 (d=3)", radius, h.num_happy, h.num_sad,
             "deg-2 witnesses everywhere");
    }
    const Graph t400 = torus_grid(20, 20);
    for (Vertex radius : {1, 2, 20}) {
      const HappyAnalysis h = compute_happy_set(t400, 4, radius);
      t3.row("torus 20x20 (d=4)", radius, h.num_happy, h.num_sad,
             radius <= 1 ? "balls are stars: all sad" : "C4 visible: happy");
    }
  }
  t3.print();

  std::cout << "\nE10(d): randomized vs deterministic list-coloring (paper "
               "§6 / Question 6.2 remark)\n"
               "randomized (deg+1)-list-coloring runs in O(log n) rounds "
               "w.h.p. — the exponential\nseparation the deterministic "
               "lower bounds of §2 make unavoidable.\n\n";
  Table t4({"n", "randomized rounds", "deterministic rounds (Thm 1.3)",
            "ratio"});
  for (Vertex n : {256, 1024, 4096}) {
    Rng rng3(99);
    const Graph g = random_regular(n, 4, rng3);
    // (deg+1)-lists for the randomized algorithm; d-lists for Thm 1.3.
    const ListAssignment lists5 = uniform_lists(n, 5);
    const ListAssignment lists4 = uniform_lists(n, 4);
    RunContext run_ctx;
    run_ctx.seed = 1;
    run_ctx.validate = true;
    const ColoringReport rr =
        solve(make_request("randomized", g, lists5), run_ctx);
    ColoringRequest det_req = make_request("sparse", g, lists4);
    det_req.k = 4;
    const ColoringReport det = solve(det_req, run_ctx);
    t4.row(n, rr.rounds, det.rounds,
           static_cast<double>(det.rounds) / static_cast<double>(rr.rounds));
  }
  t4.print();

  std::cout << "\nShape check: tiny radii stall exactly where the theory\n"
               "predicts (locally-Gallai views without witnesses); the\n"
               "paper radius always succeeds but pays proportional rounds;\n"
               "alpha trades root separation against tree depth; the\n"
               "randomized variant needs orders of magnitude fewer rounds\n"
               "(with one more list color and randomness).\n";
  return 0;
}

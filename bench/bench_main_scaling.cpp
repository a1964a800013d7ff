// E1 — Theorem 1.3: round complexity scaling, driven through scol::solve.
//
// Paper claims: O(d^4 log^3 n) rounds in general, O(d^2 log^3 n) when the
// max degree is at most d; peel count k = O(d^3 log n) in general,
// O(d log n) degree-bounded. We measure total LOCAL rounds and peel counts
// across n for several d and report rounds / log^3(n) — a polylog shape
// means the normalized column stays near-constant (it can even fall, since
// with the paper radius most instances peel in O(1) levels).
//
//   $ ./bench_main_scaling --baseline-out=BENCH_scaling.json [--baseline-reps=N]
//
// The baseline mode repeats the sweep N times (default 3, identical
// seeds each rep) and pins the per-row wall_ms medians as
// "scaling/<family>/n=<n>/wall_ms" series — the shared schema of
// bench/baseline.h, so `tools/bench_compare.py merge` can fold the
// scaling curve into BENCH_perf.json.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "baseline.h"
#include "scol/scol.h"

using namespace scol;

int main(int argc, char** argv) {
  const std::string baseline_out =
      scol::bench::take_flag(argc, argv, "--baseline-out");
  const std::string baseline_reps =
      scol::bench::take_flag(argc, argv, "--baseline-reps");
  const int reps =
      baseline_out.empty()
          ? 1
          : (baseline_reps.empty()
                 ? 3
                 : std::max(1, std::atoi(baseline_reps.c_str())));

  std::cout << "E1 / Theorem 1.3: rounds and peels vs n (uniform d-lists)\n"
            << "families: d-regular (degree-bounded branch), union-of-forests"
               " and G(n,m) (general branch)\n"
            << "driven through solve(\"sparse\") with validating contexts\n\n";

  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> order;
  RunContext ctx;  // one context: every row reuses the same warmed arena
  ctx.validate = true;  // solve() re-checks every coloring independently
  for (int rep = 0; rep < reps; ++rep) {
    const bool print = rep == 0;
    Table t({"family", "d", "n", "peels", "rounds", "rounds/log2^3(n)",
             "wall_ms", "colors<=d", "valid"});

    Rng rng(20260610);  // re-seeded per rep: identical graphs every pass
    const auto run = [&](const char* family, const Graph& g, Vertex d) {
      const ListAssignment lists =
          uniform_lists(g.num_vertices(), static_cast<Color>(d));
      ColoringRequest req = make_request("sparse", g, lists);
      req.k = d;
      const ColoringReport r = solve(req, ctx);
      const double l = std::log2(static_cast<double>(g.num_vertices()));
      if (print)
        t.row(family, d, g.num_vertices(), r.metrics.get_int("peels", -1),
              r.rounds, static_cast<double>(r.rounds) / (l * l * l),
              r.wall_ms, r.colors_used <= d ? "yes" : "NO",
              r.ok() ? "yes" : "NO");
      const std::string series = std::string("scaling/") + family +
                                 "/n=" + std::to_string(g.num_vertices()) +
                                 "/wall_ms";
      auto [it, inserted] = samples.try_emplace(series);
      if (inserted) order.push_back(series);
      it->second.push_back(r.wall_ms);
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
    if (print) t.print();

    if (print) {
      std::cout << "\nround breakdown at n=2048, d=4 (regular):\n";
      const Graph g = random_regular(2048, 4, rng);
      const ListAssignment lists = uniform_lists(2048, 4);
      ColoringRequest req = make_request("sparse", g, lists);
      req.k = 4;
      const ColoringReport r = solve(req, ctx);
      for (const auto& [phase, rounds] : r.ledger.breakdown())
        std::cout << "  " << phase << ": " << rounds << "\n";
    }
  }
  std::cout << "\nShape check: the normalized column stays bounded (polylog),"
               "\nthe d=6 rows sit above d=3/d=4 (poly(d) factor), and the\n"
               "'sweep' phase dominates — matching the paper's"
               " O(d log^2 n)-per-level extension cost.\n";

  // Shard curves (display only, not a pinned baseline series): the same
  // sparse solve under the distributed backend for p shards. Rounds are
  // the ledger's and so invariant in p by construction; messages are
  // rounds x plan.boundary_pairs, scaling with the boundary the partition
  // induces — the exchange cost a real multi-engine deployment would pay.
  std::cout << "\nexchange cost under the sharded executor"
               " (regular d=4, range partition):\n";
  {
    Table t({"n", "shards", "rounds", "messages", "boundary", "cut_edges",
             "same bytes as serial"});
    Rng rng(20260610);
    for (Vertex n : {1024, 4096}) {
      const Graph g = random_regular(n, 4, rng);
      const ListAssignment lists =
          uniform_lists(g.num_vertices(), static_cast<Color>(4));
      ColoringRequest req = make_request("sparse", g, lists);
      req.k = 4;
      RunContext serial_ctx;
      serial_ctx.validate = true;
      ColoringReport serial = solve(req, serial_ctx);
      serial.wall_ms = 0;
      const std::string oracle = to_json(serial, true).dump();
      for (int p : {1, 2, 4, 8}) {
        ShardOptions shard_options;
        shard_options.shards = p;
        // Telemetry off: the report must be the serial bytes; the
        // exchange is priced from its rounds and the plan here instead.
        shard_options.metrics = false;
        const ShardedExecutor exec(g, shard_options);
        RunContext sharded_ctx;
        sharded_ctx.validate = true;
        sharded_ctx.executor = &exec;
        ColoringReport r = solve(req, sharded_ctx);
        r.wall_ms = 0;
        const ShardPlan& plan = exec.plan();
        t.row(n, p, r.rounds, r.rounds * plan.boundary_pairs,
              plan.boundary_vertices, plan.cut_edges,
              to_json(r, true).dump() == oracle ? "yes" : "NO");
      }
    }
    t.print();
  }

  if (!baseline_out.empty()) {
    scol::bench::BaselineWriter writer("bench_main_scaling");
    for (const auto& series : order)
      writer.add_median(series, samples.at(series), "ms",
                        /*higher_is_better=*/false);
    if (!writer.write(baseline_out)) {
      std::cerr << "bench_main_scaling: cannot write baseline '"
                << baseline_out << "'\n";
      return 1;
    }
    std::cout << "\nwrote " << writer.size() << " series for "
              << scol::bench::machine_class() << " to " << baseline_out
              << "\n";
  }
  return 0;
}

// E11 — the LOCAL round seam: serial vs thread-pool Rounds::round
// throughput on the gen/ random, lattice, and planar families, plus a
// bit-identity audit (the executor contract: parallel output == serial
// output, state for state).
//
// Throughput metric: vertex-rounds per second — one vertex-round is one
// node computing its next state once. A round is a pure map over vertices,
// so this is the number the hardware bounds.
//
//   $ ./bench_engine_parallel [n]      (default n = 100000)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "scol/scol.h"

using namespace scol;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Synchronous rounds of BFS-style distance propagation — the canonical
// cheap-state node program (state = one int32 per vertex).
std::vector<Vertex> run_distance_rounds(const Graph& g, int rounds,
                                        const Executor* exec) {
  std::vector<Vertex> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  for (Vertex v = 0; v < g.num_vertices(); v += 997) dist[v] = 0;
  std::vector<Vertex> next(dist.size());
  RoundLedger ledger;
  Rounds on(ledger, exec);
  for (int r = 0; r < rounds; ++r) {
    on.round("distance", dist.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        Vertex best = dist[i];
        for (Vertex w : g.neighbors(static_cast<Vertex>(i))) {
          const Vertex d = dist[static_cast<std::size_t>(w)];
          if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
        }
        next[i] = best;
      }
    });
    dist.swap(next);
  }
  return dist;
}

struct Family {
  std::string name;
  Graph graph;
};

}  // namespace

int main(int argc, char** argv) {
  const Vertex n = argc > 1 ? static_cast<Vertex>(std::atol(argv[1])) : 100'000;
  if (n < 3) {
    std::cerr << "usage: bench_engine_parallel [n >= 3]\n";
    return 2;
  }
  const int rounds = 20;
  ThreadPoolExecutor pool;  // hardware concurrency
  std::cout << "round seam: serial vs thread pool ("
            << pool.concurrency() << " threads), n ~ " << n << ", "
            << rounds << " rounds/program\n\n";

  Rng rng(20260728);
  const Vertex side = static_cast<Vertex>(std::max(2.0, std::sqrt(double(n))));
  std::vector<Family> families;
  families.push_back({"gnm(n,3n)", gnm(n, 3 * static_cast<std::int64_t>(n), rng)});
  families.push_back({"grid", grid(side, side)});
  families.push_back({"planar-stacked", random_stacked_triangulation(n, rng)});

  Table t({"family", "n", "m", "serial s", "pool s", "Mvr/s serial",
           "Mvr/s pool", "speedup", "identical"});
  for (const Family& f : families) {
    const Graph& g = f.graph;
    // Warm once so first-touch page faults don't bias the serial column.
    run_distance_rounds(g, 1, nullptr);
    const auto t0 = Clock::now();
    const auto serial = run_distance_rounds(g, rounds, nullptr);
    const double serial_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const auto parallel = run_distance_rounds(g, rounds, &pool);
    const double pool_s = seconds_since(t1);
    const double vr = static_cast<double>(g.num_vertices()) * rounds / 1e6;
    t.row(f.name, g.num_vertices(), g.num_edges(), serial_s, pool_s,
          vr / serial_s, vr / pool_s, serial_s / pool_s,
          serial == parallel ? "yes" : "NO");
  }
  t.print();

  // Randomized (deg+1)-list-coloring end to end (propose+resolve rounds on
  // the runtime's per-(vertex, round) Rng streams).
  std::cout << "\nrandomized (deg+1)-list-coloring end to end\n\n";
  Table r({"family", "rounds", "serial s", "pool s", "speedup", "identical"});
  for (const Family& f : families) {
    const Graph& g = f.graph;
    const ListAssignment lists = uniform_lists(
        g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
    Rng rng_serial(7), rng_pool(7);
    const auto t0 = Clock::now();
    const auto serial = randomized_list_coloring(g, lists, rng_serial);
    const double serial_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const auto parallel = randomized_list_coloring(g, lists, rng_pool, &pool);
    const double pool_s = seconds_since(t1);
    r.row(f.name, serial.rounds, serial_s, pool_s, serial_s / pool_s,
          serial.coloring == parallel.coloring ? "yes" : "NO");
  }
  r.print();
  return 0;
}

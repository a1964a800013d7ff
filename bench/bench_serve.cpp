// B15 — serving-layer throughput: requests/sec through Server's batch
// pipeline (parse → cache resolution → solve/dedup → envelope) driven
// in-process over string streams, so the numbers isolate the serve path
// from socket and scheduler noise.
//
// Three series bracket the cache's value:
//   serve/cold/rps   every request distinct — all misses, pure solve+
//                    envelope cost (the no-cache floor);
//   serve/hot/rps    the same mix replayed on a warm server — all
//                    report-cache hits, splice-only responses;
//   serve/zipf/rps   a theta=1.0 Zipf mix over the universe — the
//                    realistic blend the CI load job drives.
//
//   $ ./bench_serve [requests]   (default 2000 per series)
//
// Display-only; the daemon's end-to-end numbers come from pipebench's
// serve-open workload (docs/BENCHMARKS.md).
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "scol/serve/server.h"
#include "scol/serve/zipf.h"
#include "scol/util/rng.h"

using namespace scol;

namespace {

using Clock = std::chrono::steady_clock;

// Generator-only universe (no file dependencies): 6 scenarios x 4
// precondition-free algorithms x 2 seeds = 48 distinct cache keys.
std::vector<std::string> request_universe() {
  const std::vector<std::string> gens = {
      "grid:rows=10,cols=10", "cylinder:rows=8,cols=8", "petersen",
      "regular:n=128,d=4",    "planar:n=120",           "tree:n=150",
  };
  const std::vector<std::string> algos = {"greedy", "dsatur", "degeneracy",
                                          "randomized"};
  std::vector<std::string> keys;
  for (const auto& g : gens)
    for (const auto& a : algos)
      for (int seed = 1; seed <= 2; ++seed)
        keys.push_back("{\"algo\":\"" + a + "\",\"gen\":\"" + g +
                       "\",\"seed\":" + std::to_string(seed) + "}");
  return keys;
}

/// Feeds `lines` through a server stream and returns requests/sec.
double drive(Server& server, const std::vector<std::string>& lines) {
  std::stringstream in, out;
  for (const auto& line : lines) in << line << "\n";
  const auto t0 = Clock::now();
  server.serve_stream(in, out);
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  // Sanity: every request must have been answered ok (a bench over
  // error envelopes would be measuring string formatting).
  std::string reply;
  std::size_t answered = 0;
  while (std::getline(out, reply)) {
    if (reply.find("\"ok\":true") == std::string::npos) {
      std::cerr << "bench_serve: request failed: " << reply << "\n";
      std::exit(1);
    }
    ++answered;
  }
  if (answered != lines.size()) {
    std::cerr << "bench_serve: " << answered << " replies for "
              << lines.size() << " requests\n";
    std::exit(1);
  }
  return static_cast<double>(lines.size()) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 2000;
  if (argc > 1) {
    const long long n = std::atoll(argv[1]);
    if (n < 1 || argc > 2) {
      std::cerr << "usage: bench_serve [requests >= 1]\n";
      return 2;
    }
    requests = static_cast<std::size_t>(n);
  }

  const std::vector<std::string> universe = request_universe();

  // Cold: `requests` distinct keys — vary the seed so every request is
  // a genuine graph-build + solve (capacity 0 = unbounded, no eviction
  // noise).
  std::vector<std::string> cold;
  cold.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i)
    cold.push_back(
        "{\"algo\":\"greedy\",\"gen\":\"grid:rows=10,cols=10\",\"seed\":" +
        std::to_string(i + 1) + "}");

  // Zipf mix: fixed draw sequence (deterministic across runs).
  ZipfSampler zipf(universe.size(), 1.0);
  Rng rng(42);
  std::vector<std::string> mix;
  mix.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i)
    mix.push_back(universe[zipf.draw(rng)]);

  ServerOptions options;
  options.graph_cache_capacity = 0;
  options.report_cache_capacity = 0;
  double cold_rps = 0.0, hot_rps = 0.0, zipf_rps = 0.0;
  {
    Server server(options);
    cold_rps = drive(server, cold);
  }
  {
    Server server(options);
    drive(server, mix);            // warm every key in the mix
    hot_rps = drive(server, mix);  // pure report-cache hits
  }
  {
    Server server(options);
    zipf_rps = drive(server, mix);
  }

  std::cout << "bench_serve: " << requests << " requests/series, "
            << universe.size() << "-key universe\n"
            << "  cold (all miss)   " << cold_rps << " rps\n"
            << "  hot (all hit)     " << hot_rps << " rps\n"
            << "  zipf theta=1.0    " << zipf_rps << " rps\n";
  return 0;
}

// B13 — campaign runner throughput: job-level scaling of a
// scenario x algorithm x seed grid over the job executor, the
// graph-cache amortization (N algorithms per generated instance), and a
// bit-identity audit of the JSONL stream across executors and shards.
//
// Metric: jobs per second — one job is one scol::solve() plus its oracle
// checks and JSONL serialization, the unit the campaign subsystem
// schedules.
//
//   $ ./bench_campaign [seeds]      (default seeds = 6)
//
// Display-only; the gated campaign throughput is pipebench's
// campaign-ingest workload (docs/BENCHMARKS.md).
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "scol/scol.h"

using namespace scol;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

CampaignSpec bench_spec(int seeds) {
  CampaignSpec spec;
  spec.scenarios = {"planar:n=300", "regular:n=256,d=4",
                    "grid:rows=16,cols=16", "gnm:n=256,m=384"};
  spec.algorithms = {"greedy", "degeneracy", "dsatur", "sparse",
                     "randomized"};
  spec.seeds = seeds;
  return spec;
}

struct RunStats {
  double seconds = 0.0;
  std::size_t bytes = 0;
  std::vector<std::string> lines;
  CampaignResult result;
};

RunStats run_once(const CampaignSpec& spec, const Executor* executor) {
  CampaignOptions options;
  options.executor = executor;
  RunStats stats;
  const auto t0 = Clock::now();
  stats.result = run_campaign(spec, options, [&](const std::string& line) {
    stats.bytes += line.size() + 1;
    stats.lines.push_back(line);
  });
  stats.seconds = seconds_since(t0);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const int seeds = argc > 1 ? std::atoi(argv[1]) : 6;
  if (seeds < 1) {
    std::cerr << "usage: bench_campaign [seeds >= 1]\n";
    return 2;
  }
  const CampaignSpec spec = bench_spec(seeds);
  const std::size_t jobs = enumerate_campaign(spec).size();
  std::cout << "campaign grid: " << spec.scenarios.size()
            << " scenarios x " << spec.algorithms.size() << " algorithms x "
            << seeds << " seeds = " << jobs << " jobs\n\n";

  // Graph-cache amortization: what the grid pays for generation (once
  // per instance) vs what per-job generation would cost.
  {
    const auto t0 = Clock::now();
    std::size_t instances = 0;
    for (const auto& scenario : spec.scenarios) {
      for (int t = 0; t < seeds; ++t, ++instances) {
        Rng rng(spec.seed + static_cast<std::uint64_t>(t));
        const Graph g = build_scenario(scenario, rng);
        (void)g;
      }
    }
    const double gen = seconds_since(t0);
    std::cout << "generation: " << instances << " instances in " << gen * 1e3
              << " ms; cache saves "
              << gen * 1e3 *
                     static_cast<double>(jobs - instances) /
                     static_cast<double>(instances)
              << " ms vs per-job generation\n\n";
  }

  const RunStats serial = run_once(spec, nullptr);
  std::cout << "jobs=1 (serial): " << serial.seconds * 1e3 << " ms, "
            << static_cast<double>(jobs) / serial.seconds << " jobs/s, "
            << serial.bytes << " JSONL bytes, "
            << serial.result.oracle_violations << " oracle violations\n";

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int threads : {2, 4, hw}) {
    if (threads < 2 || (threads == hw && (hw == 2 || hw == 4))) continue;
    ThreadPoolExecutor pool(threads, /*grain=*/1);
    const RunStats parallel = run_once(spec, &pool);
    const bool identical = parallel.lines == serial.lines;
    std::cout << "jobs=" << threads << ":        " << parallel.seconds * 1e3
              << " ms, " << static_cast<double>(jobs) / parallel.seconds
              << " jobs/s, speedup x"
              << serial.seconds / parallel.seconds
              << (identical ? " [stream identical]"
                            : " [STREAM MISMATCH]")
              << "\n";
    if (!identical) return 1;
  }
  return 0;
}

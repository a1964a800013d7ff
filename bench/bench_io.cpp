// B14 — graph-file ingestion throughput: parse MB/s per format on a
// generated sparse instance, write/read round-trip integrity, and the
// structure-probe cost that campaign probe filtering pays once per
// instance.
//
// Metric: MB/s of text parsed (the readers are single-pass and
// line-buffered, so throughput is tokenizer-bound), file-backed MB/s for
// the streaming and mmap chunk-parallel readers (edge list and METIS,
// the formats the parallel reader covers), and probe wall time split by
// component cost class (linear peel/BFS vs bounded planarity/flow vs the
// sampled mode web-scale campaigns run under a probe budget).
//
//   $ ./bench_io [n]      (default n = 20000 vertices, ~1.4n edges)
//
// Display-only; the gated ingest numbers are pipebench's campaign-ingest
// workload and its io.parse / io.probe layers (docs/BENCHMARKS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "scol/gen/random.h"
#include "scol/io/io.h"
#include "scol/io/probe.h"
#include "scol/util/rng.h"
#include "scol/util/table.h"

using namespace scol;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Vertex n = 20000;
  if (argc > 1) {
    n = static_cast<Vertex>(std::atoi(argv[1]));
    if (n < 10) {
      std::cerr << "usage: bench_io [n >= 10]\n";
      return 2;
    }
  }
  // Two overlaid spanning trees: ~2n edges, connected, no isolated
  // vertices (the edge-list format cannot represent those).
  Rng rng(42);
  const Graph g = random_forest_union(n, 2, rng);
  std::cout << "bench_io: " << describe(g) << "\n\n";

  Table table({"format", "bytes", "write_ms", "parse_ms", "parse_MB/s",
               "round_trip"});
  for (const GraphFormat format :
       {GraphFormat::kDimacs, GraphFormat::kMetis,
        GraphFormat::kMatrixMarket, GraphFormat::kEdgeList}) {
    std::ostringstream os;
    const auto w0 = Clock::now();
    write_graph(os, g, format);
    const double write_ms = ms_since(w0);
    const std::string text = os.str();

    std::istringstream in(text);
    const auto p0 = Clock::now();
    const ReadResult r = read_graph(in, format, "bench");
    const double parse_ms = ms_since(p0);

    const bool identical = r.graph.num_vertices() == g.num_vertices() &&
                           r.graph.edges() == g.edges();
    const double mbps =
        static_cast<double>(text.size()) / 1e6 / (parse_ms / 1e3);
    table.row(format_name(format), text.size(), write_ms, parse_ms, mbps,
              identical ? "yes" : "NO");
    if (!identical) {
      std::cerr << "bench_io: round trip diverged for "
                << format_name(format) << "\n";
      return 1;
    }
  }
  table.print(std::cout);

  // The file-backed readers on the formats the mmap parallel reader
  // covers: threads=1 is the streaming line reader, threads=8 the
  // mmap chunk-parallel path (both produce bit-identical graphs; the
  // differential tests pin that, here it is just re-checked).
  Table ptable({"format", "threads", "parse_ms", "parse_MB/s"});
  for (const GraphFormat format :
       {GraphFormat::kMetis, GraphFormat::kEdgeList}) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         (std::string("bench_io_") + format_name(format) + ".tmp"))
            .string();
    {
      std::ofstream out(path, std::ios::binary);
      write_graph(out, g, format);
    }
    const double bytes =
        static_cast<double>(std::filesystem::file_size(path));
    for (const int threads : {1, 8}) {
      ReadOptions options;
      options.threads = threads;
      const auto f0 = Clock::now();
      const ReadResult fr = read_graph_file(path, format, options);
      const double file_ms = ms_since(f0);
      if (fr.graph.edges() != g.edges()) {
        std::cerr << "bench_io: file round trip diverged for "
                  << format_name(format) << " threads=" << threads
                  << "\n";
        return 1;
      }
      const double fmbps = bytes / 1e6 / (file_ms / 1e3);
      ptable.row(format_name(format), threads, file_ms, fmbps);
    }
    std::remove(path.c_str());
  }
  std::cout << "\nfile-backed readers (streaming vs mmap parallel):\n";
  ptable.print(std::cout);

  // The probe, as the campaign pays it: once per instance. The linear
  // components always run; planarity and exact mad/arboricity only
  // below their limits (this instance is above the defaults).
  const auto t0 = Clock::now();
  const GraphProbe probe = probe_graph(g);
  const double probe_ms = ms_since(t0);
  std::cout << "\nprobe (" << probe_ms << " ms): " << describe(probe)
            << "\n";

  // The bounded components at full strength, on a size they are sized
  // for (the flow-based mad/arboricity and Demoucron planarity are the
  // reason the limits exist).
  const Vertex deep_n = std::min<Vertex>(n, 2000);
  Rng deep_rng(43);
  const Graph h = random_forest_union(deep_n, 2, deep_rng);
  ProbeOptions exhaustive;
  exhaustive.planarity_limit = deep_n + 1;
  exhaustive.exact_mad_limit = deep_n + 1;
  const auto t1 = Clock::now();
  const GraphProbe deep = probe_graph(h, exhaustive);
  const double deep_ms = ms_since(t1);
  std::cout << "probe with exact mad/arboricity/planarity on n=" << deep_n
            << " (" << deep_ms << " ms): " << describe(deep) << "\n";

  // The sampled probe: what probe_graph costs on an instance far past
  // the budget, where campaigns fall back to certified-but-weaker
  // facts instead of linear scans (docs/DESIGN.md, web-scale
  // ingestion).
  ProbeOptions sampled_options;
  sampled_options.budget = 4096;  // n + m is far above: sampled mode
  const auto t2 = Clock::now();
  const GraphProbe shallow = probe_graph(g, sampled_options);
  const double shallow_ms = ms_since(t2);
  std::cout << "probe sampled at budget=4096 (" << shallow_ms
            << " ms): " << describe(shallow) << "\n";
  return 0;
}

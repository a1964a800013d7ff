// P — wall-clock microbenchmarks (google-benchmark): substrate primitives
// and end-to-end colorings through the unified scol::solve() entry point.
// These are engineering numbers (simulation throughput), not LOCAL rounds,
// and display-only: the perf gate is pipebench (docs/BENCHMARKS.md).
// Every google-benchmark flag works as usual, e.g.
//
//   $ ./bench_perf --benchmark_filter=BM_Solve --benchmark_min_time=0.05
#include <benchmark/benchmark.h>

#include <vector>

#include "scol/scol.h"

namespace {

using namespace scol;

Graph make_regular(Vertex n, Vertex d) {
  Rng rng(12345);
  return random_regular(n, d, rng);
}

// --- Substrate primitives. ---

void BM_BfsBall(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  Vertex v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ball(g, v, 6));
    v = (v + 17) % g.num_vertices();
  }
}
BENCHMARK(BM_BfsBall)->Arg(1024)->Arg(8192);

void BM_BlockDecomposition(benchmark::State& state) {
  Rng rng(7);
  const Graph g = gnm(static_cast<Vertex>(state.range(0)),
                      2 * state.range(0), rng);
  for (auto _ : state) benchmark::DoNotOptimize(block_decomposition(g));
}
BENCHMARK(BM_BlockDecomposition)->Arg(1024)->Arg(8192);

void BM_GallaiRecognition(benchmark::State& state) {
  Rng rng(9);
  const Graph g = random_gallai_tree(static_cast<Vertex>(state.range(0)), 5, rng);
  for (auto _ : state) benchmark::DoNotOptimize(is_gallai_tree(g));
}
BENCHMARK(BM_GallaiRecognition)->Arg(200)->Arg(2000);

void BM_ExactMad(benchmark::State& state) {
  Rng rng(11);
  const Graph g = gnm(static_cast<Vertex>(state.range(0)),
                      2 * state.range(0), rng);
  for (auto _ : state) benchmark::DoNotOptimize(maximum_average_degree(g));
}
BENCHMARK(BM_ExactMad)->Arg(256)->Arg(1024);

void BM_Planarity(benchmark::State& state) {
  Rng rng(13);
  const Graph g = random_stacked_triangulation(
      static_cast<Vertex>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(is_planar(g));
}
BENCHMARK(BM_Planarity)->Arg(256)->Arg(1024);

void BM_HappySet(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const Vertex rho = paper_ball_radius(g.num_vertices());
  for (auto _ : state) benchmark::DoNotOptimize(compute_happy_set(g, 4, rho));
}
BENCHMARK(BM_HappySet)->Arg(1024)->Arg(8192);

void BM_HappySetParallel(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const Vertex rho = paper_ball_radius(g.num_vertices());
  ThreadPoolExecutor pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(compute_happy_set(g, 4, rho, &pool));
}
BENCHMARK(BM_HappySetParallel)->Arg(8192);

void BM_RulingForest(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  std::vector<char> u(static_cast<std::size_t>(g.num_vertices()), 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(ruling_forest(g, u, 8, nullptr));
}
BENCHMARK(BM_RulingForest)->Arg(1024)->Arg(8192);

void BM_DistributedDPlus1(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  for (auto _ : state)
    benchmark::DoNotOptimize(distributed_degree_coloring(g, 4));
}
BENCHMARK(BM_DistributedDPlus1)->Arg(1024)->Arg(8192);

// --- End-to-end through the unified API. ---

// Registry dispatch + request validation overhead: a trivial graph, so the
// measured time is solve() machinery, not algorithm work.
void BM_SolveDispatchOverhead(benchmark::State& state) {
  const Graph g = path(2);
  const ColoringRequest req = make_request("greedy", g);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveDispatchOverhead);

void BM_SolveSixColorPlanar(benchmark::State& state) {
  Rng rng(17);
  const Graph g = random_stacked_triangulation(
      static_cast<Vertex>(state.range(0)), rng);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  const ColoringRequest req = make_request("planar6", g, lists);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveSixColorPlanar)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SolveSparseRegular(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  ColoringRequest req = make_request("sparse", g, lists);
  req.k = 4;
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveSparseRegular)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_SolveSparseRegularParallel(benchmark::State& state) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 4);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  ColoringRequest req = make_request("sparse", g, lists);
  req.k = 4;
  ThreadPoolExecutor pool;
  RunContext ctx;
  ctx.executor = &pool;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveSparseRegularParallel)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_SolveGpsPlanar(benchmark::State& state) {
  Rng rng(19);
  const Graph g = random_stacked_triangulation(
      static_cast<Vertex>(state.range(0)), rng);
  const ColoringRequest req = make_request("gps", g);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK(BM_SolveGpsPlanar)->Arg(1024)->Arg(8192)->Unit(benchmark::kMillisecond);

// Palette sparsification vs its full-palette twin on the same dense-degree
// instance: a d=64 regular graph with (d+1)-lists, the regime where the
// sampled palette (c log n colors) is genuinely smaller than the full one.
// Timing both side by side keeps the sparsified path's overhead honest
// relative to the solver it wraps.
void BM_SparsifiedSweep(benchmark::State& state, const char* algo) {
  const Graph g = make_regular(static_cast<Vertex>(state.range(0)), 64);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 65);
  ColoringRequest req = make_request(algo, g, lists);
  RunContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(solve(req, ctx));
}
BENCHMARK_CAPTURE(BM_SparsifiedSweep, dplus1_sparsified, "dplus1-sparsified")
    ->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SparsifiedSweep, dplus1_full, "randomized")
    ->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ReportToJson(benchmark::State& state) {
  Rng rng(23);
  const Graph g = random_stacked_triangulation(512, rng);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  const ColoringReport report = solve(make_request("planar6", g, lists));
  for (auto _ : state)
    benchmark::DoNotOptimize(to_json(report, /*include_coloring=*/true).dump());
}
BENCHMARK(BM_ReportToJson);

}  // namespace

BENCHMARK_MAIN();

// Bring your own graph: file -> probe -> eligible algorithms -> solve.
//
// The docs/FORMATS.md walkthrough as a program: read a real instance
// (DIMACS, METIS, Matrix Market, or edge list — the format is sniffed),
// probe its certified structure, ask the registry which algorithms'
// preconditions it satisfies, and run one of them through scol::solve().
//
//   $ ./bring_your_own [path/to/graph]     (default: the bundled
//                                           examples/graphs/grotzsch.col)
#include <algorithm>
#include <iostream>
#include <string>

#include "scol/scol.h"

int main(int argc, char** argv) {
  using namespace scol;

  const std::string path =
      argc > 1 ? argv[1]
               : std::string(SCOL_REPO_DIR) + "/examples/graphs/grotzsch.col";

  // 1. Ingest. Tolerant of comments / CRLF / duplicate edges; structural
  //    lies (wrong counts, bad ids) throw with a file:line:col position.
  const ReadResult loaded = read_graph_file(path);
  std::cout << "read " << path << " as " << format_name(loaded.stats.format)
            << ": " << describe(loaded.graph) << "\n";
  if (loaded.stats.duplicate_edges > 0 || loaded.stats.self_loops > 0)
    std::cout << "  (dropped " << loaded.stats.duplicate_edges
              << " duplicate edges, " << loaded.stats.self_loops
              << " self-loops)\n";
  const Graph& g = loaded.graph;

  // 2. Probe. Files carry no class promise, so measure what is
  //    certifiable: degeneracy, mad/arboricity bounds, girth floor,
  //    planarity (exact on graphs this small).
  const GraphProbe probe = probe_graph(g);
  std::cout << "probe: " << describe(probe) << "\n\n";

  // 3. Eligibility. The same verdicts `scol-cli campaign --algo all`
  //    uses to auto-select algorithms for this instance.
  // Auto-k is per algorithm (effective_k): list algorithms get
  // max(3, max degree + 1), raised to the fixed list size of the
  // algorithm's list-size rule (planar6 judges at 6 even when max degree
  // is low) — exactly the campaign's per-job rule.
  ParamBag no_params;
  std::vector<std::string> eligible;
  std::cout << "preconditions (auto-k per algorithm):\n";
  for (const auto& name : AlgorithmRegistry::instance().names()) {
    const AlgorithmInfo& info = AlgorithmRegistry::instance().at(name);
    const Vertex k_eff =
        effective_k(info, -1, g.max_degree(), no_params);
    const std::string reason = algorithm_skip_reason(
        info, EligibilityQuery{&probe, &no_params, k_eff});
    if (reason.empty())
      eligible.push_back(name);
    else
      std::cout << "  skip " << name << " (k=" << k_eff << "): " << reason
                << "\n";
  }
  std::cout << "  eligible:";
  for (const auto& name : eligible) std::cout << " " << name;
  std::cout << "\n\n";

  // 4. Solve with an eligible paper algorithm (fall back to the always-
  //    eligible degeneracy greedy if the sparse kernel was filtered).
  const std::string algorithm =
      std::find(eligible.begin(), eligible.end(), "sparse") != eligible.end()
          ? "sparse"
          : "degeneracy";
  const Vertex k = std::max<Vertex>(3, g.max_degree() + 1);
  const ListAssignment lists = uniform_lists(g.num_vertices(), k);
  ColoringRequest request = make_request(algorithm, g, lists);
  request.k = k;
  RunContext ctx;
  ctx.validate = true;
  const ColoringReport report = solve(request, ctx);

  std::cout << "solve(" << algorithm << "): " << to_string(report.status)
            << ", " << report.colors_used << " colors, " << report.rounds
            << " LOCAL rounds\n";
  return report.ok() ? 0 : 1;
}

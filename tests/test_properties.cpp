// Cross-module property sweeps: Moore bound (Theorem 4.1/Corollary 4.2),
// Proposition 2.2, Theorem 1.2 (folklore), chain chi <= ch <= floor(mad)+1,
// and Observation 5.1-style list-surplus invariants exercised end to end —
// plus the randomized registry-wide property harness (proptest.h):
// validity, registered color bounds, and relabeling metamorphic
// invariance for every eligible algorithm on random instances.
#include <gtest/gtest.h>

#include <cmath>

#include "proptest.h"
#include "scol/coloring/exact.h"
#include "scol/coloring/greedy.h"
#include "scol/coloring/sparse.h"
#include "scol/coloring/sparsify.h"
#include "scol/flow/density.h"
#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/cliques.h"
#include "scol/graph/girth.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

// Corollary 4.2: girth <= 4 log n / log(1 + delta) when avg degree 2+delta.
void check_moore(const Graph& g) {
  const double avg = g.average_degree();
  if (avg <= 2.0) return;
  const Vertex gi = girth(g);
  if (gi < 0) return;
  const double bound = 4.0 * std::log(static_cast<double>(g.num_vertices())) /
                       std::log(avg - 1.0);
  EXPECT_LE(static_cast<double>(gi), bound + 1e-9) << describe(g);
}

TEST(Moore, CagesAndRandom) {
  check_moore(petersen());
  check_moore(heawood());
  check_moore(mcgee());
  Rng rng(643);
  for (int t = 0; t < 10; ++t) check_moore(gnm(80, 100 + rng.below(150), rng));
  check_moore(random_regular(100, 3, rng));
}

TEST(Moore, Theorem41FormOnCages) {
  // n >= (1 + delta)^{(g-1)/2} with delta = avg - 2.
  for (const Graph& g : {petersen(), heawood(), mcgee()}) {
    const double delta = g.average_degree() - 2.0;
    const double gi = static_cast<double>(girth(g));
    EXPECT_GE(static_cast<double>(g.num_vertices()) + 1e-9,
              std::pow(1.0 + delta, (gi - 1.0) / 2.0))
        << describe(g);
  }
}

TEST(Prop22, PlanarGirthVsMad) {
  // mad < 2g/(g-2) for planar graphs of girth g.
  Rng rng(647);
  const auto check = [](const Graph& g, Vertex girth_lb) {
    const double mad = maximum_average_degree(g).value();
    EXPECT_LT(mad, 2.0 * girth_lb / (girth_lb - 2.0)) << describe(g);
  };
  check(random_stacked_triangulation(150, rng), 3);  // girth 3: mad < 6
  check(grid(12, 12), 4);                            // girth 4: mad < 4
  check(cylinder(8, 12), 4);
  check(hex_patch(12, 12), 6);                       // girth 6: mad < 3
}

TEST(Folklore12, MainAlgorithmRealizesTheorem) {
  // Theorem 1.2: d = ceil(mad) >= 3, no K_{d+1}: ch(G) <= d. Our main
  // algorithm is its constructive counterpart — verify on random sparse
  // graphs with exact mad, random d-lists.
  Rng rng(653);
  int exercised = 0;
  for (int t = 0; t < 12; ++t) {
    const Graph g = gnm(90, 110 + rng.below(60), rng);
    const Vertex d = std::max<Vertex>(3, mad_ceiling(g));
    if (find_clique(g, d + 1).has_value()) continue;
    const ListAssignment lists =
        random_lists(90, static_cast<Color>(d), static_cast<Color>(3 * d), rng);
    const SparseResult r = list_color_sparse(g, d, lists);
    ASSERT_TRUE(r.coloring.has_value());
    expect_proper_list_coloring(g, *r.coloring, lists);
    ++exercised;
  }
  EXPECT_GE(exercised, 6);
}

TEST(Chain, ChiLeqChLeqMadFloorPlusOne) {
  // chi <= ch <= floor(mad)+1 (§1.2): the degeneracy greedy realizes the
  // right-hand bound; the exact solver the left.
  Rng rng(659);
  for (int t = 0; t < 8; ++t) {
    const Graph g = gnm(16, 20 + rng.below(25), rng);
    const double mad = maximum_average_degree(g).value();
    const Coloring greedy = degeneracy_coloring(g);
    expect_proper(g, greedy);
    EXPECT_LE(count_colors(greedy),
              static_cast<Vertex>(std::floor(mad)) + 1);
    EXPECT_LE(chromatic_number(g), count_colors(greedy));
  }
}

TEST(Degeneracy, ArboricityImpliesDegeneracyBound) {
  // Graphs with arboricity a are (2a-1)-degenerate (§1.3).
  Rng rng(661);
  for (Vertex a : {2, 3}) {
    const Graph g = random_forest_union(120, a, rng);
    EXPECT_LE(degeneracy_order(g).degeneracy, 2 * a - 1);
  }
}

TEST(PeelShape, PeelCountLogarithmicOnRegular) {
  // Theorem 1.3's bounded-degree branch: k = O(d log n) peels; with the
  // paper radius on a shallow regular graph everything is happy at once,
  // so exercise the multi-peel regime with a radius override and check
  // the count stays far below n.
  Rng rng(673);
  const Graph g = random_regular(300, 4, rng);
  SparseOptions opts;
  opts.radius_override = 6;
  const SparseResult r =
      list_color_sparse(g, 4, uniform_lists(300, 4), opts);
  ASSERT_TRUE(r.coloring.has_value());
  EXPECT_LE(static_cast<int>(r.peels.size()), 40);
}

TEST(Rounds, PolylogShapeAcrossSizes) {
  // Rounds / log^3(n) should not explode as n grows (fixed d): ratios
  // across a 16x size range stay within a small constant factor.
  Rng rng(677);
  std::vector<double> normalized;
  for (Vertex n : {64, 256, 1024}) {
    const Graph g = random_regular(n, 4, rng);
    const SparseResult r = list_color_sparse(
        g, 4, uniform_lists(n, 4));
    ASSERT_TRUE(r.coloring.has_value());
    const double l = std::log2(static_cast<double>(n));
    normalized.push_back(static_cast<double>(r.ledger.total()) / (l * l * l));
  }
  const double lo = *std::min_element(normalized.begin(), normalized.end());
  const double hi = *std::max_element(normalized.begin(), normalized.end());
  EXPECT_LE(hi / lo, 64.0);  // generous constant; catches super-polylog blowup
}

TEST(Obs51, SurplusSurvivesPeeling) {
  // After any peel, removed neighbors are uncolored, so list sizes minus
  // *colored* neighbor counts never drop below residual degrees — the
  // extension asserts this internally; here we just run a multi-level
  // instance through and rely on the internal SCOL_CHECKs.
  Rng rng(683);
  Graph base = random_forest_union(130, 2, rng);
  std::vector<Edge> edges = base.edges();
  for (Vertex i = 0; i < 15; ++i) {
    const Vertex w = static_cast<Vertex>((9 * i + 5) % 130);
    if (w != 1 && !base.has_edge(1, w)) edges.emplace_back(1, w);
  }
  const Graph g = Graph::from_edges(130, edges);
  const Vertex d = std::max<Vertex>(4, mad_ceiling(g));
  const SparseResult r =
      list_color_sparse(g, d, uniform_lists(130, static_cast<Color>(d)));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

// --- Randomized registry-wide property harness (proptest.h). ---

// Shared driver: solve one eligible cell with independent validation on
// and return the report after asserting the per-cell invariants.
ColoringReport run_cell(const Graph& g, const proptest::EligibleCell& cell,
                        const std::string& label) {
  const ColoringRequest req = proptest::cell_request(cell, g);
  RunContext ctx;
  ctx.validate = true;  // solve() re-checks properness + lists itself
  const ColoringReport r = solve(req, ctx);
  EXPECT_NE(r.status, SolveStatus::kFailed)
      << label << ": " << cell.info->name << " failed: " << r.failure_reason;
  if (r.coloring.has_value()) {
    // ctx.validate already demoted improper reports; re-check here so a
    // validator regression cannot mask a solver regression.
    expect_proper(g, *r.coloring);
    if (req.lists != nullptr) {
      EXPECT_TRUE(respects_lists(*r.coloring, *req.lists)) << label;
    }
    const std::int64_t bound =
        cell.info->color_bound ? cell.info->color_bound(req) : -1;
    if (bound >= 0) {
      EXPECT_LE(r.colors_used, bound)
          << label << ": " << cell.info->name
          << " exceeded its registered color bound";
    }
  }
  return r;
}

TEST(Proptest, EveryEligibleAlgorithmValidOnRandomGraphs) {
  // Random instances through every registered algorithm whose structural
  // precondition passes — exactly the cells a campaign would run. Each
  // must color (eligibility promises success on uniform auto-k lists),
  // validate, and respect its registered bound.
  ParamBag params;
  std::size_t cells_run = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(8800 + seed);
    const proptest::Sample sample = proptest::random_graph(rng);
    const std::string label =
        sample.description + " (seed " + std::to_string(8800 + seed) + ")";
    const GraphProbe probe = probe_graph(sample.graph);
    for (const auto& cell :
         proptest::eligible_cells(sample.graph, params, probe)) {
      const ColoringReport r = run_cell(sample.graph, cell, label);
      // Uniform k-lists on an eligible cell: infeasibility would
      // contradict the eligibility promise for every builtin.
      EXPECT_EQ(r.status, SolveStatus::kColored)
          << label << ": " << cell.info->name;
      ++cells_run;
    }
  }
  // The pool mixes sparse/planar/complete families; a healthy registry
  // yields many eligible cells. Guards against the filter going dark.
  EXPECT_GE(cells_run, 60u);
}

TEST(Proptest, RelabelingIsMetamorphicInvariant) {
  // Relabeling the vertices produces an isomorphic instance, so for every
  // eligible algorithm the report status must not change, validity must
  // survive on the relabeled instance, and the registered color bound
  // (a function of the isomorphism class) must keep holding.
  ParamBag params;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(9900 + seed);
    const proptest::Sample sample = proptest::random_graph(rng);
    const std::string label =
        sample.description + " (seed " + std::to_string(9900 + seed) + ")";
    const std::vector<Vertex> perm =
        proptest::random_permutation(sample.graph.num_vertices(), rng);
    const Graph relabeled = permute(sample.graph, perm);

    // Structure is isomorphism-invariant: degree sequences must agree...
    std::vector<Vertex> d1, d2;
    for (Vertex v = 0; v < sample.graph.num_vertices(); ++v) {
      d1.push_back(sample.graph.degree(v));
      d2.push_back(relabeled.degree(v));
    }
    std::sort(d1.begin(), d1.end());
    std::sort(d2.begin(), d2.end());
    EXPECT_EQ(d1, d2) << label;
    // ...and each eligible cell must behave identically up to relabeling.
    const GraphProbe probe = probe_graph(sample.graph);
    for (const auto& cell :
         proptest::eligible_cells(sample.graph, params, probe)) {
      proptest::EligibleCell relabeled_cell;
      relabeled_cell.info = cell.info;
      relabeled_cell.k_eff = cell.k_eff;
      if (cell.info->caps.needs_lists)
        relabeled_cell.lists = proptest::permuted_lists(cell.lists, perm);
      const ColoringReport a = run_cell(sample.graph, cell, label);
      const ColoringReport b =
          run_cell(relabeled, relabeled_cell, label + " [relabeled]");
      EXPECT_EQ(a.status, b.status) << label << ": " << cell.info->name
                                    << " changed status under relabeling";
    }
  }
}

TEST(Proptest, ExactColorCountIsRelabelingInvariant) {
  // The chromatic number is a graph invariant: the exact solver must
  // report the same k-colorability verdict — and the same minimum — on
  // every relabeling. This is the strongest form of the metamorphic
  // property (heuristics may permute their coloring; the optimum cannot
  // move).
  Rng rng(777);
  for (int t = 0; t < 8; ++t) {
    const Graph g = gnm(11, 14 + static_cast<std::int64_t>(rng.below(10)), rng);
    const std::vector<Vertex> perm =
        proptest::random_permutation(g.num_vertices(), rng);
    const Graph h = permute(g, perm);
    EXPECT_EQ(chromatic_number(g), chromatic_number(h)) << describe(g);
    const ListAssignment lists = random_lists(g.num_vertices(), 3, 6, rng);
    EXPECT_EQ(find_list_coloring(g, lists).has_value(),
              find_list_coloring(h, proptest::permuted_lists(lists, perm))
                  .has_value())
        << describe(g);
  }
}

TEST(Proptest, ArenaReuseAcrossSolves) {
  // A RunContext reused across solves recycles its arena: the second run
  // resets the arena instead of growing it, and the per-run metrics carry
  // the allocation counters (the memory-layout contract of DESIGN.md).
  Rng rng(51);
  const Graph g = random_regular(128, 4, rng);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  ColoringRequest req = make_request("sparse", g, lists);
  req.k = 4;
  RunContext ctx;
  const ColoringReport first = solve(req, ctx);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.metrics.get_int("arena_allocs", 0), 0);
  EXPECT_GT(first.metrics.get_int("arena_bytes", 0), 0);
  ASSERT_NE(ctx.arena, nullptr);
  const std::int64_t chunks_after_first = ctx.arena->stats().chunks;
  const ColoringReport second = solve(req, ctx);
  ASSERT_TRUE(second.ok());
  // Identical run on a warmed arena: same allocation profile, no new
  // chunks, and a bit-identical coloring.
  EXPECT_EQ(ctx.arena->stats().chunks, chunks_after_first);
  EXPECT_GE(ctx.arena->stats().resets, 2);
  EXPECT_EQ(first.metrics.get_int("arena_allocs", -1),
            second.metrics.get_int("arena_allocs", -2));
  EXPECT_EQ(*first.coloring, *second.coloring);
}

// --- Palette sparsification (coloring/sparsify.h + the *-sparsified
// registry family). ---

TEST(Sparsify, SampleIsCanonicalSubsetOfTheRightSize) {
  Rng rng(71);
  for (int t = 0; t < 8; ++t) {
    const Vertex n = 30 + static_cast<Vertex>(rng.below(40));
    const Color palette = 20 + static_cast<Color>(rng.below(60));
    const Color k = 5 + static_cast<Color>(rng.below(15));
    const ListAssignment lists = random_lists(n, k, palette, rng);
    const Vertex target = 3 + static_cast<Vertex>(rng.below(10));
    const ListAssignment sampled =
        sparsify_palette(lists, target, rng.next(), t);
    ASSERT_EQ(sampled.size(), n);
    EXPECT_TRUE(sampled.canonical());
    for (Vertex v = 0; v < n; ++v) {
      const auto full = lists.of(v);
      const auto sub = sampled.of(v);
      EXPECT_EQ(static_cast<Vertex>(sub.size()),
                std::min<Vertex>(static_cast<Vertex>(full.size()), target));
      for (const Color c : sub) EXPECT_TRUE(list_contains(full, c));
    }
  }
}

TEST(Sparsify, SampleIsAttemptKeyedAndReproducible) {
  // Same (seed, attempt) -> identical sample; different attempts ->
  // fresh samples (that is what makes retrying worthwhile).
  Rng rng(73);
  const ListAssignment lists = random_lists(50, 12, 40, rng);
  const ListAssignment a0 = sparsify_palette(lists, 4, 999, 0);
  const ListAssignment a0_again = sparsify_palette(lists, 4, 999, 0);
  const ListAssignment a1 = sparsify_palette(lists, 4, 999, 1);
  EXPECT_TRUE(std::equal(a0.flat().begin(), a0.flat().end(),
                         a0_again.flat().begin(), a0_again.flat().end()));
  EXPECT_FALSE(std::equal(a0.flat().begin(), a0.flat().end(),
                          a1.flat().begin(), a1.flat().end()));
}

// One solve under an explicit executor, validation on.
ColoringReport solve_sparsified(const std::string& algo, const Graph& g,
                                const ListAssignment& lists,
                                const ParamBag& params,
                                const Executor* executor) {
  ColoringRequest req = make_request(algo, g, lists);
  req.params = params;
  RunContext ctx;
  ctx.validate = true;
  ctx.executor = executor;
  return solve(req, ctx);
}

TEST(Sparsify, FamilyIsValidAndExecutorIndependent) {
  // Every sparsified algorithm colors uniform auto-k lists on random
  // sparse graphs, respects lists + registered bound (run_cell), and the
  // whole report — coloring, rounds, and the sparsify metrics — is
  // bit-identical serial vs thread pool.
  Rng rng(77);
  ThreadPoolExecutor pool(4);
  for (int t = 0; t < 4; ++t) {
    const Graph g = gnm(60, 110 + rng.below(60), rng);
    const Color k = static_cast<Color>(g.max_degree() + 1);
    const ListAssignment lists = uniform_lists(g.num_vertices(), k);
    for (const char* algo :
         {"dplus1-sparsified", "deglist-sparsified", "list-sparsified"}) {
      const ColoringReport serial =
          solve_sparsified(algo, g, lists, {}, nullptr);
      ASSERT_EQ(serial.status, SolveStatus::kColored) << algo;
      expect_proper_list_coloring(g, *serial.coloring, lists);
      EXPECT_LE(serial.colors_used, static_cast<Vertex>(k)) << algo;
      EXPECT_TRUE(serial.metrics.has("sparsify_attempts")) << algo;
      EXPECT_TRUE(serial.metrics.has("sparsify_fallback")) << algo;
      EXPECT_GT(serial.metrics.get_int("sparsify_target", 0), 0) << algo;

      const ColoringReport pooled =
          solve_sparsified(algo, g, lists, {}, &pool);
      EXPECT_EQ(*serial.coloring, *pooled.coloring) << algo;
      EXPECT_EQ(serial.rounds, pooled.rounds) << algo;
      EXPECT_EQ(serial.metrics.get_int("sparsify_attempts", -1),
                pooled.metrics.get_int("sparsify_attempts", -2))
          << algo;
      EXPECT_EQ(serial.metrics.get_int("sparsify_fallback", -1),
                pooled.metrics.get_int("sparsify_fallback", -2))
          << algo;
    }
  }
}

TEST(Sparsify, FallbackPathStaysValidAndDeterministic) {
  // Force failing attempts: on a complete graph a proper coloring needs
  // all n colors, so 2-color samples (sparsify_c tiny) cannot work and
  // the full-palette fallback must kick in — recorded in the metrics,
  // still colored, still bit-identical across executors.
  const Graph g = complete(12);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 12);
  ParamBag params;
  params.set_real("sparsify_c", 0.1);  // target clamps to 2 colors
  params.set_int("sparsify_attempts", 2);
  ThreadPoolExecutor pool(4);
  for (const char* algo :
       {"dplus1-sparsified", "deglist-sparsified", "list-sparsified"}) {
    const ColoringReport serial =
        solve_sparsified(algo, g, lists, params, nullptr);
    ASSERT_EQ(serial.status, SolveStatus::kColored) << algo;
    expect_proper_list_coloring(g, *serial.coloring, lists);
    EXPECT_EQ(serial.metrics.get_int("sparsify_fallback", -1), 1) << algo;
    EXPECT_EQ(serial.metrics.get_int("sparsify_attempts", -1), 2) << algo;
    const ColoringReport pooled =
        solve_sparsified(algo, g, lists, params, &pool);
    EXPECT_EQ(*serial.coloring, *pooled.coloring) << algo;
    EXPECT_EQ(serial.rounds, pooled.rounds) << algo;
    EXPECT_EQ(pooled.metrics.get_int("sparsify_fallback", -1), 1) << algo;
    // Ledger bytes: the fallback's phases first, then the attempts' rounds
    // (two capped attempts of 1000 two-round iterations) appended as
    // "sparsified-attempts", only when nonzero.
    using Phases = std::vector<std::pair<std::string, std::int64_t>>;
    const Phases expected =
        std::string(algo) == "dplus1-sparsified"
            ? Phases{{"randomized-coloring",
                      2 * serial.metrics.get_int("iterations", -1)},
                     {"sparsified-attempts", 2 * 2 * 1000}}
            : Phases{};
    EXPECT_EQ(serial.ledger.breakdown(), expected) << algo;
    EXPECT_EQ(pooled.ledger.breakdown(), expected) << algo;
  }
}

TEST(Sparsify, ListSparsifiedFallbackProvesInfeasibility) {
  // K_5 with 4-lists is infeasible; the sampled attempts cannot prove
  // that (a sample hides colors), so the verdict must come from the
  // full-list exact fallback — and be flagged as a fallback verdict.
  const Graph g = complete(5);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  const ColoringReport r =
      solve_sparsified("list-sparsified", g, lists, {}, nullptr);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_EQ(r.metrics.get_int("sparsify_fallback", -1), 1);
}

}  // namespace
}  // namespace scol

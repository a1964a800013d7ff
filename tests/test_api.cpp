// The unified solver API: registry completeness, a round-trip over every
// registered algorithm (small planar + small random fixtures, reports
// independently validated), serial vs ThreadPoolExecutor report identity
// through RunContext, budgets/telemetry/aggregate-ledger plumbing, the
// scenario registry, ParamBag typing, JSON serialization, and
// ListAssignment edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "scol/scol.h"

namespace scol {
namespace {

struct ApiCase {
  std::string name;  // test label
  std::string algo;
  Graph graph;
  ListAssignment lists;  // empty lists = no-lists request
  Vertex k = -1;
  ParamBag params;
  SolveStatus expect = SolveStatus::kColored;
};

// One fixture per (algorithm, graph family) — kept in sync with the
// registry by RegistryCompleteness below, which fails when an algorithm
// has no fixture.
std::vector<ApiCase> api_cases() {
  std::vector<ApiCase> cases;
  Rng rng(20260728);
  const Graph planar = grid(8, 8);                  // planar, mad < 4
  const Graph sparse4 = random_regular(60, 4, rng); // d-regular, mad = 4

  const auto add = [&](std::string name, std::string algo, Graph g,
                       ListAssignment lists, Vertex k = -1,
                       ParamBag params = {},
                       SolveStatus expect = SolveStatus::kColored) {
    cases.push_back({std::move(name), std::move(algo), std::move(g),
                     std::move(lists), k, std::move(params), expect});
  };
  const auto unif = [](const Graph& g, Color k) {
    return uniform_lists(g.num_vertices(), k);
  };

  add("sparse_planar", "sparse", planar, unif(planar, 4), 4);
  add("sparse_regular", "sparse", sparse4, unif(sparse4, 4), 4);
  add("nice_planar", "nice", planar, unif(planar, 5));
  add("nice_regular", "nice", sparse4, unif(sparse4, 5));
  add("planar6", "planar6", planar, unif(planar, 6));
  add("planar4_tf", "planar4-trianglefree", planar, unif(planar, 4));
  {
    const Graph hex = hex_patch(8, 8);
    add("planar3_g6", "planar3-girth6", hex, unif(hex, 3));
  }
  {
    const Graph forest = random_forest_union(60, 2, rng);
    ParamBag p;
    p.set_int("arboricity", 2);
    add("arboricity", "arboricity", forest, unif(forest, 4), -1, p);
    add("barenboim_elkin", "barenboim-elkin", forest, {}, -1, p);
  }
  {
    const Graph torus = torus_grid(6, 6);  // Euler genus 2, H(2) = 7
    ParamBag p;
    p.set_int("genus", 2);
    add("genus", "genus", torus, unif(torus, 7), -1, p);
    add("genus_sharp", "genus-sharp", torus, unif(torus, 6), -1, p);
    add("genus_sharp_k7", "genus-sharp", complete(7), unif(complete(7), 6),
        -1, p, SolveStatus::kInfeasible);
  }
  add("delta_list", "delta-list", sparse4, unif(sparse4, 4));
  {
    const Graph k5_grid = disjoint_union(complete(5), grid(6, 6));
    add("delta_list_unsat", "delta-list", k5_grid, unif(k5_grid, 4), -1, {},
        SolveStatus::kInfeasible);
  }
  add("ert_planar", "ert", planar, unif(planar, 5));
  add("randomized_planar", "randomized", planar, unif(planar, 5));
  add("randomized_regular", "randomized", sparse4, unif(sparse4, 5));
  add("linial_planar", "linial", planar, {});
  add("linial_regular", "linial", sparse4, {});
  add("gps_planar", "gps", planar, {});
  add("greedy", "greedy", planar, {});
  add("degeneracy", "degeneracy", sparse4, {});
  add("dsatur", "dsatur", planar, {});
  add("degeneracy_list", "degeneracy-list", planar, unif(planar, 5));
  // Palette-sparsified family: sampled sub-palettes plus full-list
  // fallback keep the base solvers' guarantees, so kColored everywhere
  // the base fixture succeeds — and list-sparsified inherits exact-list's
  // infeasibility proof through the fallback.
  add("dplus1_sparsified", "dplus1-sparsified", planar, unif(planar, 5));
  add("dplus1_sparsified_regular", "dplus1-sparsified", sparse4,
      unif(sparse4, 5));
  add("deglist_sparsified", "deglist-sparsified", planar, unif(planar, 5));
  add("list_sparsified", "list-sparsified", grid(4, 4),
      unif(grid(4, 4), 2));
  add("list_sparsified_unsat", "list-sparsified", complete(5),
      unif(complete(5), 4), -1, {}, SolveStatus::kInfeasible);
  add("exact_petersen", "exact", petersen(), {}, 3);
  add("exact_petersen_2", "exact", petersen(), {}, 2,
      {}, SolveStatus::kInfeasible);
  add("exact_list", "exact-list", grid(4, 4), unif(grid(4, 4), 2));
  add("sdr_feasible", "sdr", complete(5), unif(complete(5), 5));
  add("sdr_unsat", "sdr", complete(5), unif(complete(5), 4), -1, {},
      SolveStatus::kInfeasible);
  return cases;
}

ColoringRequest to_request(const ApiCase& c) {
  ColoringRequest req;
  req.graph = &c.graph;
  req.algorithm = c.algo;
  req.k = c.k;
  req.params = c.params;
  if (!c.lists.empty()) req.lists = &c.lists;
  return req;
}

TEST(Registry, Completeness) {
  const auto names = AlgorithmRegistry::instance().names();
  EXPECT_GE(names.size(), 10u);
  // The paper pipeline, its corollaries, and every baseline must register.
  for (const char* expected :
       {"sparse", "nice", "planar6", "planar4-trianglefree",
        "planar3-girth6", "arboricity", "genus", "genus-sharp", "delta-list",
        "ert", "randomized", "linial", "gps", "barenboim-elkin", "greedy",
        "degeneracy", "dsatur", "degeneracy-list", "dplus1-sparsified",
        "deglist-sparsified", "list-sparsified", "exact", "exact-list",
        "sdr"}) {
    EXPECT_NE(AlgorithmRegistry::instance().find(expected), nullptr)
        << expected;
  }
  // Every registered algorithm has at least one round-trip fixture.
  std::set<std::string> covered;
  for (const auto& c : api_cases()) covered.insert(c.algo);
  for (const auto& n : names)
    EXPECT_TRUE(covered.count(n)) << "no api_cases fixture for '" << n << "'";
  // Capability contract: constructive provers name their witness kinds,
  // exhaustive search proves without one, heuristics prove nothing.
  const auto& reg = AlgorithmRegistry::instance();
  EXPECT_TRUE(reg.at("exact").caps.proves_infeasibility);
  EXPECT_TRUE(reg.at("exact").caps.certificate_kinds.empty());
  // The sparsified wrappers keep their fallback's proof power: only the
  // exact fallback can prove infeasibility (non-constructively), and all
  // three consume the seed for sampling.
  EXPECT_TRUE(reg.at("list-sparsified").caps.proves_infeasibility);
  EXPECT_TRUE(reg.at("list-sparsified").caps.certificate_kinds.empty());
  EXPECT_FALSE(reg.at("dplus1-sparsified").caps.proves_infeasibility);
  EXPECT_FALSE(reg.at("deglist-sparsified").caps.proves_infeasibility);
  EXPECT_TRUE(reg.at("dplus1-sparsified").caps.randomized);
  EXPECT_TRUE(reg.at("deglist-sparsified").caps.randomized);
  EXPECT_TRUE(reg.at("list-sparsified").caps.randomized);
  EXPECT_TRUE(reg.at("delta-list").caps.proves_infeasibility);
  EXPECT_EQ(reg.at("delta-list").caps.certificate_kinds,
            std::vector<std::string>{"no-sdr-clique"});
  EXPECT_FALSE(reg.at("greedy").caps.proves_infeasibility);
  // Registration sanity: duplicates refused.
  EXPECT_THROW(AlgorithmRegistry::instance().add(
                   {"sparse", "dup", {}, [](const ColoringRequest&,
                                            RunContext&) {
                      return ColoringReport{};
                    },
                    {}}),
               PreconditionError);
  EXPECT_THROW(AlgorithmRegistry::instance().at("no-such-algorithm"),
               PreconditionError);
  // A list-size rule is fixed by the params or probed, not both.
  AlgorithmInfo both{"two-rules", "both", {},
                     [](const ColoringRequest&, RunContext&) {
                       return ColoringReport{};
                     }};
  both.list_size = {.fixed = [](const ParamBag&) { return Vertex{6}; },
                    .probed = [](const GraphProbe& p) { return p.max_degree; }};
  EXPECT_THROW(AlgorithmRegistry::instance().add(std::move(both)),
               PreconditionError);
}

TEST(Solve, RoundTripEveryAlgorithm) {
  for (const auto& c : api_cases()) {
    SCOPED_TRACE(c.name);
    RunContext ctx;
    ctx.seed = 99;
    ctx.validate = true;
    const ColoringReport r = solve(to_request(c), ctx);
    EXPECT_EQ(r.status, c.expect) << r.failure_reason;
    EXPECT_EQ(r.algorithm, c.algo);
    EXPECT_EQ(r.rounds, r.ledger.total());
    if (c.expect == SolveStatus::kColored) {
      ASSERT_TRUE(r.coloring.has_value());
      EXPECT_TRUE(is_proper(c.graph, *r.coloring));
      if (!c.lists.empty()) {
        EXPECT_TRUE(respects_lists(*r.coloring, c.lists));
      }
      EXPECT_EQ(r.colors_used, count_colors(*r.coloring));
      EXPECT_GT(r.wall_ms, 0.0);
    } else {
      EXPECT_FALSE(r.coloring.has_value());
    }
  }
}

TEST(Solve, SerialAndThreadPoolReportsBitIdentical) {
  ThreadPoolExecutor pool(4, /*grain=*/16);
  for (const auto& c : api_cases()) {
    SCOPED_TRACE(c.name);
    RunContext serial_ctx, pool_ctx;
    serial_ctx.seed = pool_ctx.seed = 7;
    pool_ctx.executor = &pool;
    const ColoringReport a = solve(to_request(c), serial_ctx);
    const ColoringReport b = solve(to_request(c), pool_ctx);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.coloring, b.coloring);
    EXPECT_EQ(a.certificate, b.certificate);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.colors_used, b.colors_used);
    EXPECT_EQ(a.ledger.breakdown(), b.ledger.breakdown());
  }
}

TEST(Solve, MisuseThrowsButAlgorithmFailureReports) {
  const Graph g = grid(4, 4);
  // Misuse: no graph / unknown algorithm / missing lists -> throws.
  RunContext ctx;
  ColoringRequest no_graph;
  no_graph.algorithm = "greedy";
  EXPECT_THROW(solve(no_graph, ctx), PreconditionError);
  EXPECT_THROW(solve(make_request("not-an-algorithm", g), ctx),
               PreconditionError);
  EXPECT_THROW(solve(make_request("sparse", g), ctx), PreconditionError);

  // Algorithm failure: a violated sparsity promise (GPS peel stall on K_9)
  // comes back as a kFailed report, not an exception.
  const Graph k9 = complete(9);
  const ColoringReport r = solve(make_request("gps", k9), ctx);
  EXPECT_EQ(r.status, SolveStatus::kFailed);
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(Solve, FailureReasonNamesTheSourceFileNotItsPath) {
  // A REQUIRE failing inside a solver (Theorem 6.1's peel cap) names its
  // source by basename, so the report reads the same from any checkout.
  Rng rng(1);
  const Graph g = build_scenario("regular:n=512,d=4", rng);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 4);
  ColoringRequest req = make_request("nice", g, lists);
  req.params.set_int("radius", 2).set_int("max_peels", 1);
  RunContext ctx;
  const ColoringReport r = solve(req, ctx);
  ASSERT_EQ(r.status, SolveStatus::kFailed);
  EXPECT_NE(r.failure_reason.find("peel cap exceeded"), std::string::npos)
      << r.failure_reason;
  EXPECT_NE(r.failure_reason.find(" at sparse.cpp:"), std::string::npos)
      << r.failure_reason;
  EXPECT_EQ(r.failure_reason.find('/'), std::string::npos)
      << r.failure_reason;
}

TEST(Solve, ContextBudgetsLedgerAndTelemetry) {
  const Graph g = grid(6, 6);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  ColoringRequest req = make_request("planar6", g, lists);

  int starts = 0, ends = 0, phases = 0;
  RunContext ctx;
  ctx.round_budget = 1;  // any distributed run exceeds one round
  ctx.telemetry = [&](const TelemetryEvent& ev) {
    if (ev.kind == TelemetryEvent::Kind::kSolveStart) ++starts;
    if (ev.kind == TelemetryEvent::Kind::kSolveEnd) ++ends;
    if (ev.kind == TelemetryEvent::Kind::kPhase) ++phases;
  };

  const ColoringReport a = solve(req, ctx);
  EXPECT_TRUE(a.round_budget_exceeded);
  EXPECT_FALSE(a.deadline_exceeded);
  const ColoringReport b = solve(req, ctx);
  EXPECT_EQ(a.ledger.breakdown(), b.ledger.breakdown());
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(phases, static_cast<int>(a.ledger.breakdown().size() +
                                     b.ledger.breakdown().size()));
}

TEST(Solve, ExactNodeBudgetsThroughRegistry) {
  // node_budget counts search-tree nodes; a 36-vertex search needs more
  // than 5, so the run ends in a typed failure.
  const Graph g = grid(6, 6);
  ColoringRequest exact = make_request("exact", g);
  exact.k = 3;
  exact.params.set_int("node_budget", 5);
  RunContext ctx;
  const ColoringReport a = solve(exact, ctx);
  EXPECT_EQ(a.status, SolveStatus::kFailed);
  EXPECT_EQ(a.failure_reason, "find_k_coloring: budget exceeded");

  // A one-node budget defeats every sampled attempt, so list-sparsified
  // colours through its full-list fallback.
  const Graph h = grid(4, 4);
  const ListAssignment lists = uniform_lists(h.num_vertices(), 2);
  ColoringRequest sparsified = make_request("list-sparsified", h, lists);
  sparsified.params.set_int("sparsify_node_budget", 1);
  const ColoringReport b = solve(sparsified, ctx);
  ASSERT_EQ(b.status, SolveStatus::kColored) << b.failure_reason;
  EXPECT_TRUE(is_proper(h, *b.coloring));
  EXPECT_EQ(b.metrics.get_int("sparsify_fallback", -1), 1);
}

TEST(Solve, RandomizedSeedDeterminismThroughContext) {
  Rng g_rng(31);
  const Graph g = gnm(80, 140, g_rng);
  const ListAssignment lists =
      uniform_lists(g.num_vertices(), static_cast<Color>(g.max_degree() + 1));
  const ColoringRequest req = make_request("randomized", g, lists);
  RunContext c1, c2, c3;
  c1.seed = c2.seed = 12345;
  c3.seed = 54321;
  const ColoringReport a = solve(req, c1);
  const ColoringReport b = solve(req, c2);
  const ColoringReport c = solve(req, c3);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_NE(a.coloring, c.coloring);  // different seed, different run
}

TEST(Scenarios, RegistryAndSpecs) {
  EXPECT_GE(ScenarioRegistry::instance().size(), 20u);
  const auto [name, params] = parse_scenario_spec("regular:n=64,d=4");
  EXPECT_EQ(name, "regular");
  EXPECT_EQ(params.get_int("n", -1), 64);
  EXPECT_EQ(params.get_int("d", -1), 4);

  Rng r1(5), r2(5);
  const Graph a = build_scenario("regular:n=64,d=4", r1);
  const Graph b = build_scenario("regular:n=64,d=4", r2);
  EXPECT_EQ(a.num_vertices(), 64);
  EXPECT_EQ(a.edges(), b.edges());  // deterministic per seed

  Rng r3(5);
  const Graph bare = build_scenario("petersen", r3);
  EXPECT_EQ(bare.num_vertices(), 10);
  EXPECT_THROW(build_scenario("no-such-family", r3), PreconditionError);
  EXPECT_THROW(build_scenario(":n=3", r3), PreconditionError);

  // Malformed key=val pairs are rejected with a position-carrying error,
  // never silently skipped.
  EXPECT_THROW(parse_scenario_spec("grid:rows=8,,cols=9"),
               PreconditionError);
  EXPECT_THROW(parse_scenario_spec("grid:rows="), PreconditionError);
  EXPECT_THROW(parse_scenario_spec("grid:=8"), PreconditionError);
  EXPECT_THROW(parse_scenario_spec("grid:rows=8,"), PreconditionError);
  try {
    parse_scenario_spec("grid:rows=8,,cols=9");
    FAIL() << "empty segment must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 12"), std::string::npos)
        << e.what();
  }

  // Unknown keys are rejected against the scenario's declared key set.
  EXPECT_THROW(validate_scenario_spec("grid:rowz=8"), PreconditionError);
  EXPECT_THROW(build_scenario("petersen:n=10", r3), PreconditionError);
  try {
    validate_scenario_spec("grid:rowz=8");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'rowz'"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find("rows"), std::string::npos) << what;  // known keys
  }
  // Well-formed specs with known keys still pass.
  EXPECT_NO_THROW(validate_scenario_spec("grid:rows=4,cols=5"));
  for (const auto& sname : ScenarioRegistry::instance().names())
    EXPECT_NO_THROW(validate_scenario_spec(sname));

  // Every scenario builds with defaults and yields a non-trivial graph —
  // except "file", the documented exception: it has no default path
  // (tests/test_io.cpp covers it against the bundled instances).
  for (const auto& sname : ScenarioRegistry::instance().names()) {
    if (sname == "file") continue;
    SCOPED_TRACE(sname);
    Rng rng(17);
    const Graph g = build_scenario(sname, rng);
    EXPECT_GT(g.num_vertices(), 0);
  }
}

TEST(Scenarios, UnknownNamesAndKeysGetDidYouMeanHints) {
  Rng rng(1);
  // A typo'd scenario name within edit distance 2 names the neighbor.
  try {
    build_scenario("gird:rows=4", rng);
    FAIL() << "unknown scenario must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scenario 'gird'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'grid'?"), std::string::npos) << what;
  }
  // A typo'd key gets the same treatment on top of the whitelist error.
  try {
    validate_scenario_spec("grid:rowz=8");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'rows'?"), std::string::npos) << what;
  }
  try {
    validate_scenario_spec("regular:b=4");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    // 'b' is within distance 2 of both axes; the closest (distance-1
    // tie) resolves to the first candidate in declaration order.
    const std::string what = e.what();
    EXPECT_NE(what.find("did you mean 'n'?"), std::string::npos) << what;
  }
  // Nothing nearby: the hint is omitted rather than misleading.
  try {
    validate_scenario_spec("grid:threshold=8");
    FAIL() << "unknown key must throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"),
              std::string::npos)
        << e.what();
  }
}

TEST(Params, TypedBagAndParsing) {
  ParamBag bag;
  bag.set_int("n", 42).set_real("eps", 0.5).set_flag("fast", true)
      .set_str("mode", "auto");
  EXPECT_EQ(bag.get_int("n", -1), 42);
  EXPECT_DOUBLE_EQ(bag.get_real("eps", 0), 0.5);
  EXPECT_DOUBLE_EQ(bag.get_real("n", 0), 42.0);  // int widens to real
  EXPECT_TRUE(bag.get_flag("fast", false));
  EXPECT_EQ(bag.get_str("mode", ""), "auto");
  EXPECT_EQ(bag.get_int("absent", -7), -7);
  EXPECT_THROW(bag.get_int("mode", 0), PreconditionError);
  EXPECT_THROW(bag.get_flag("n", false), PreconditionError);

  ParamBag parsed;
  parse_param(parsed, "k=12");
  parse_param(parsed, "c=65.8");
  parse_param(parsed, "deep");
  parse_param(parsed, "off=false");
  parse_param(parsed, "name=paper");
  EXPECT_EQ(parsed.get_int("k", -1), 12);
  EXPECT_NEAR(parsed.get_real("c", 0), 65.8, 1e-9);
  EXPECT_TRUE(parsed.get_flag("deep", false));
  EXPECT_FALSE(parsed.get_flag("off", true));
  EXPECT_EQ(parsed.get_str("name", ""), "paper");
  EXPECT_THROW(parse_param(parsed, "=3"), PreconditionError);
  // set() replaces in place, preserving order.
  parsed.set_int("k", 13);
  EXPECT_EQ(parsed.get_int("k", -1), 13);
  EXPECT_EQ(parsed.items().front().first, "k");
}

TEST(Json, ReportSerialization) {
  const Graph g = grid(5, 5);
  const ListAssignment lists = uniform_lists(g.num_vertices(), 6);
  RunContext ctx;
  const ColoringReport r = solve(make_request("planar6", g, lists), ctx);
  const std::string compact = to_json(r).dump();
  EXPECT_NE(compact.find("\"algorithm\":\"planar6\""), std::string::npos);
  EXPECT_NE(compact.find("\"status\":\"colored\""), std::string::npos);
  EXPECT_NE(compact.find("\"rounds\":"), std::string::npos);
  EXPECT_EQ(compact.find("\"coloring\""), std::string::npos);
  const std::string full = to_json(r, /*include_coloring=*/true).dump(2);
  EXPECT_NE(full.find("\"coloring\""), std::string::npos);

  // A phase a kernel opens stays in the ledger even when no round runs:
  // Linial on K3 is already a 3-coloring, GPS's auxiliary Linial pass on a
  // single vertex has nothing to reduce.
  const auto ledger_of = [&ctx](const char* algo, const Graph& graph) {
    return to_json(solve(make_request(algo, graph), ctx)).get("ledger")->dump();
  };
  EXPECT_EQ(ledger_of("linial", complete(3)), "{\"k-coloring\":0}");
  EXPECT_EQ(ledger_of("gps", complete(1)),
            "{\"peel\":1,\"aux-coloring\":0,\"recolor\":7}");

  // Escaping: failure reasons may contain quotes/newlines.
  Json obj = Json::object();
  obj.set("msg", Json::str("a \"quoted\"\nline"));
  EXPECT_EQ(obj.dump(), "{\"msg\":\"a \\\"quoted\\\"\\nline\"}");
}

TEST(Lists, EdgeCases) {
  // random_lists with k == palette_size: every list is the full palette.
  Rng rng(3);
  const ListAssignment full = random_lists(10, 4, 4, rng);
  EXPECT_TRUE(full.canonical());
  EXPECT_EQ(full.min_list_size(), 4u);
  for (Vertex v = 0; v < 10; ++v)
    EXPECT_TRUE(std::ranges::equal(full.of(v),
                                   std::vector<Color>{0, 1, 2, 3}));

  // canonical() on empty assignments and empty lists.
  ListAssignment none;
  EXPECT_TRUE(none.canonical());
  EXPECT_EQ(none.min_list_size(), 0u);
  const ListAssignment empties =
      ListAssignment::from_lists(std::vector<std::vector<Color>>(3));
  EXPECT_TRUE(empties.canonical());
  EXPECT_EQ(empties.min_list_size(), 0u);

  EXPECT_FALSE(ListAssignment::from_lists({{2, 1}}).canonical());  // unsorted
  EXPECT_FALSE(ListAssignment::from_lists({{1, 1}}).canonical());  // duplicate
}

}  // namespace
}  // namespace scol

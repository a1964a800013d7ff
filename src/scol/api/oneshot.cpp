#include "scol/api/oneshot.h"

#include <memory>

#include "scol/api/registry.h"
#include "scol/api/request.h"
#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/local/shard.h"
#include "scol/util/check.h"
#include "scol/util/rng.h"
#include "scol/util/thread_pool.h"

namespace scol {

int one_shot_exit_code(const Json& report) {
  const Json* status = report.get("status");
  return (status != nullptr && status->is_str() &&
          status->as_str() == "failed")
             ? 1
             : 0;
}

Json one_shot_report_on(const Graph& g, const OneShotSpec& spec,
                        const Executor* executor,
                        std::shared_ptr<Arena> arena) {
  const AlgorithmInfo& info =
      AlgorithmRegistry::instance().at(spec.algorithm);
  SCOL_REQUIRE(
      spec.lists_mode == "uniform" || spec.lists_mode == "random",
      + ("lists_mode must be uniform or random, got '" + spec.lists_mode +
         "'"));

  const Vertex k = effective_k(info, spec.k, g.max_degree(), spec.params);

  ListAssignment lists;
  ColoringRequest req;
  req.graph = &g;
  req.algorithm = spec.algorithm;
  req.k = k;
  req.params = spec.params;
  Color palette = spec.palette;
  if (info.caps.needs_lists) {
    if (spec.lists_mode == "uniform") {
      lists = uniform_lists(g.num_vertices(), static_cast<Color>(k));
    } else {
      if (palette <= 0) palette = static_cast<Color>(4 * k);
      // Pure function of (seed, k, palette), matching the campaign
      // runner: the assignment never depends on how the graph was
      // obtained (fresh generator state vs cache hit).
      Rng list_rng =
          Rng::stream(spec.seed, (static_cast<std::uint64_t>(k) << 32) ^
                                     static_cast<std::uint64_t>(palette));
      lists = random_lists(g.num_vertices(), static_cast<Color>(k), palette,
                           list_rng);
    }
    req.lists = &lists;
  }

  RunContext ctx;
  ctx.seed = spec.seed;
  ctx.round_budget = spec.round_budget;
  ctx.deadline_ms = spec.deadline_ms;
  ctx.validate = spec.validate;
  ctx.executor = executor;
  if (arena) ctx.arena = std::move(arena);

  ColoringReport report = solve(req, ctx);
  if (spec.shards > 0)
    add_exchange_metrics(report, ShardPlan::build(g, spec.shards));
  // wall_ms is the one nondeterministic report field; callers that need
  // byte-stable output (the server, its caches, the load generator's
  // oracle) zero it and measure latency outside the report.
  if (!spec.include_timing) report.wall_ms = 0.0;

  Json out = to_json(report, spec.with_coloring);
  Json scenario = Json::object();
  scenario.set("spec", Json::str(spec.scenario));
  scenario.set("n", Json::integer(g.num_vertices()));
  scenario.set("m", Json::integer(g.num_edges()));
  scenario.set("max_degree", Json::integer(g.max_degree()));
  out.set("scenario", std::move(scenario));
  out.set("k", Json::integer(k));
  out.set("seed", Json::integer(static_cast<std::int64_t>(spec.seed)));
  out.set("threads", Json::integer(spec.threads));
  return out;
}

Json one_shot_report(const OneShotSpec& spec) {
  Rng scenario_rng(spec.seed);
  const Graph g = build_scenario(spec.scenario, scenario_rng);

  std::unique_ptr<ThreadPoolExecutor> pool;
  if (spec.threads > 0)
    pool = std::make_unique<ThreadPoolExecutor>(spec.threads);
  return one_shot_report_on(g, spec, pool.get());
}

}  // namespace scol

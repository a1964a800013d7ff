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
  const Admission admission =
      admit(AlgorithmRegistry::instance().at(spec.algorithm), g, spec.k,
            spec.lists_mode, spec.palette, spec.params);

  ListAssignment lists;
  ColoringRequest req;
  req.graph = &g;
  req.algorithm = spec.algorithm;
  req.k = admission.k;
  req.params = spec.params;
  if (admission.lists != "none") {
    lists = admission.build_lists(g.num_vertices(), spec.seed);
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
  out.set("scenario", scenario_json(spec.scenario, g));
  out.set("k", Json::integer(admission.k));
  out.set("seed", Json::integer(static_cast<std::int64_t>(spec.seed)));
  out.set("threads", Json::integer(spec.threads));
  return out;
}

Json one_shot_report(const OneShotSpec& spec) {
  // A bad algorithm name, param key or lists mode is rejected before the
  // build, which can be the expensive part.
  require_declared_params({spec.algorithm}, spec.params);
  require_lists_mode(spec.lists_mode);
  Rng scenario_rng(spec.seed);
  const Graph g = build_scenario(spec.scenario, scenario_rng);

  std::unique_ptr<ThreadPoolExecutor> pool;
  if (spec.threads > 0)
    pool = std::make_unique<ThreadPoolExecutor>(spec.threads);
  return one_shot_report_on(g, spec, pool.get());
}

}  // namespace scol

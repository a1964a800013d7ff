#include "scol/api/campaign.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "scol/api/registry.h"
#include "scol/api/request.h"
#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/graph/graph.h"
#include "scol/io/probe.h"
#include "scol/local/shard.h"
#include "scol/serve/cache.h"

namespace scol {
namespace {

// Spec validation shared by enumerate_campaign and run_campaign: every
// axis resolves against its registry before any job runs, so a typo fails
// the whole campaign loudly instead of producing a grid of failed lines.
void validate_spec(const CampaignSpec& spec) {
  SCOL_REQUIRE(!spec.scenarios.empty(), + "campaign needs >= 1 scenario");
  SCOL_REQUIRE(!spec.algorithms.empty(), + "campaign needs >= 1 algorithm");
  SCOL_REQUIRE(spec.seeds >= 1, + "campaign needs seeds >= 1");
  SCOL_REQUIRE(spec.exec_shards >= 1, + "campaign needs shards >= 1");
  require_lists_mode(spec.lists_mode);
  for (const auto& s : spec.scenarios) validate_scenario_spec(s);
  require_declared_params(spec.algorithms, spec.params);
  for (const auto& [name, params] : spec.algo_params)
    require_declared_params({name}, params);
}

// A job's params: the shared ones its algorithm declares, overridden by
// its own algo_params.
ParamBag merged_params(const CampaignSpec& spec, const AlgorithmInfo& info) {
  ParamBag out;
  for (const auto& [key, value] : spec.params.items())
    if (std::find(info.keys.begin(), info.keys.end(), key) != info.keys.end())
      out.set(key, value);
  for (const auto& [name, overrides] : spec.algo_params) {
    if (name != info.name) continue;
    for (const auto& [key, value] : overrides.items()) out.set(key, value);
  }
  return out;
}

// One job's everything, kept until its instance completes so the
// cross-job oracle can compare verdicts before lines are sealed.
struct JobRun {
  CampaignJob job;
  ColoringReport report;
  Admission admission;      // k, list shape and probe verdict
  std::int64_t bound = -1;  // registered guarantee (-1 = none)
  bool colored_ok = false;  // kColored AND revalidated by the oracle
  double real_wall_ms = 0.0;
  std::vector<std::string> violations;
  bool skipped() const { return !admission.skip_reason.empty(); }
};

// The oracle's per-job half: revalidate the coloring against graph and
// lists, then enforce the registered guarantee bound.
void oracle_check_job(const Graph& g, const ListAssignment* lists,
                      JobRun& run) {
  if (run.report.status != SolveStatus::kColored) return;
  if (!run.report.coloring.has_value()) {
    run.violations.push_back("oracle: colored report without a coloring");
    return;
  }
  if (!is_proper(g, *run.report.coloring)) {
    run.violations.push_back("oracle: coloring is not proper");
    return;
  }
  if (lists != nullptr && !respects_lists(*run.report.coloring, *lists)) {
    run.violations.push_back("oracle: coloring ignores its lists");
    return;
  }
  run.colored_ok = true;
  if (run.bound >= 0 && run.report.colors_used > run.bound) {
    run.violations.push_back(
        "oracle: " + std::to_string(run.report.colors_used) +
        " colors exceed the registered guarantee of " +
        std::to_string(run.bound));
  }
}

// The oracle's cross-job half, within one instance (same cached graph):
//  - an infeasibility proof for the k-coloring problem (uniform k-lists,
//    or exact with request.k) is contradicted by ANY validated coloring
//    with <= k distinct colors;
//  - an infeasibility proof for a random list assignment is contradicted
//    by a validated coloring of the SAME assignment (same k + palette).
// The violation is recorded on the later job of the pair, naming both.
void oracle_cross_check(std::vector<JobRun>& runs) {
  for (std::size_t p = 0; p < runs.size(); ++p) {
    const JobRun& prover = runs[p];
    if (prover.report.status != SolveStatus::kInfeasible) continue;
    const Admission& pa = prover.admission;
    const bool k_problem = pa.lists != "random";
    if (k_problem && pa.k <= 0) continue;
    for (std::size_t c = 0; c < runs.size(); ++c) {
      const JobRun& witness = runs[c];
      if (!witness.colored_ok) continue;
      const Admission& wa = witness.admission;
      const bool conflict =
          k_problem ? witness.report.colors_used <= pa.k
                    : (wa.lists == "random" && wa.k == pa.k &&
                       wa.palette == pa.palette);
      if (!conflict) continue;
      runs[std::max(p, c)].violations.push_back(
          "oracle: '" + prover.job.algorithm +
          "' proved infeasibility (k=" + std::to_string(pa.k) +
          ", lists=" + pa.lists + ") but '" + witness.job.algorithm +
          "' produced a validated coloring with " +
          std::to_string(witness.report.colors_used) + " colors");
    }
  }
}

Json job_line(const JobRun& run, const std::string& scenario_spec,
              const Graph& g, bool include_timing, int shards_field) {
  const Admission& admission = run.admission;
  Json line = to_json(run.report, /*include_coloring=*/false);
  if (run.skipped()) {
    // Probe-filtered cell: the report shell is empty (no solve ran);
    // the line carries the verdict and the probe's reason instead.
    line.set("status", Json::str("skipped"));
    line.set("skip_reason", Json::str(admission.skip_reason));
  }
  // The JSONL stream is bit-identical across job executors and shard
  // recombination; raw wall time would break that, so it is zeroed
  // unless explicitly requested (summary quantiles always use it).
  if (!include_timing) line.set("wall_ms", Json::real(0.0));
  line.set("scenario", scenario_json(scenario_spec, g));
  line.set("k", Json::integer(admission.k));
  line.set("seed", Json::integer(static_cast<std::int64_t>(run.job.seed)));
  line.set("threads", Json::integer(0));  // jobs never use a nested pool
  // Present only for exchange-priced campaigns, so every unpriced stream
  // keeps its exact bytes.
  if (shards_field > 1) line.set("shards", Json::integer(shards_field));
  line.set("job", Json::integer(static_cast<std::int64_t>(run.job.index)));
  line.set("instance",
           Json::integer(static_cast<std::int64_t>(run.job.instance)));
  line.set("lists", Json::str(admission.lists));
  line.set("palette", Json::integer(admission.palette));
  Json oracle = Json::object();
  oracle.set("ok", Json::boolean(run.violations.empty()));
  oracle.set("colors_bound", Json::integer(run.bound));
  Json violations = Json::array();
  for (const auto& v : run.violations) violations.push(Json::str(v));
  oracle.set("violations", std::move(violations));
  line.set("oracle", std::move(oracle));
  return line;
}

// What the summary needs from a sealed job — full reports (colorings,
// certificates) are dropped as soon as the instance's lines are built,
// so campaign memory stays O(jobs), not O(jobs x n).
struct SlimStat {
  SolveStatus status = SolveStatus::kFailed;
  bool skipped = false;  // probe-filtered; status is meaningless then
  Vertex colors_used = 0;
  std::int64_t rounds = 0;
  double wall_ms = 0.0;
  std::size_t violations = 0;
};

// Per-algorithm aggregation (filled instance by instance in order, so the
// summary is deterministic apart from the wall-time quantiles).
struct AlgoStats {
  std::size_t jobs = 0, colored = 0, infeasible = 0, failed = 0;
  std::size_t skipped = 0;
  std::size_t violations = 0;
  std::vector<std::int64_t> colors;  // colored jobs only
  std::vector<std::int64_t> rounds;
  std::vector<double> wall_ms;
};

template <typename T>
Json quantiles(std::vector<T> v) {
  Json out = Json::object();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {
    return v[static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5)];
  };
  const auto to_json_value = [](T x) {
    if constexpr (std::is_same_v<T, double>) return Json::real(x);
    else return Json::integer(x);
  };
  out.set("min", to_json_value(v.front()));
  out.set("p50", to_json_value(q(0.5)));
  out.set("p90", to_json_value(q(0.9)));
  out.set("max", to_json_value(v.back()));
  return out;
}

}  // namespace

std::vector<CampaignJob> enumerate_campaign(const CampaignSpec& spec) {
  validate_spec(spec);
  std::vector<CampaignJob> jobs;
  jobs.reserve(spec.scenarios.size() * static_cast<std::size_t>(spec.seeds) *
               spec.algorithms.size());
  std::size_t instance = 0;
  for (const auto& scenario : spec.scenarios) {
    for (int t = 0; t < spec.seeds; ++t, ++instance) {
      const std::uint64_t seed =
          spec.seed + static_cast<std::uint64_t>(t);
      for (const auto& algorithm : spec.algorithms) {
        CampaignJob job;
        job.index = jobs.size();
        job.instance = instance;
        job.scenario = scenario;
        job.algorithm = algorithm;
        job.seed = seed;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options,
                            const CampaignSink& sink) {
  // enumerate_campaign validates the spec and is the single owner of the
  // grid layout: instance i covers the contiguous job-index block
  // [i * A, (i+1) * A) for A = #algorithms, so emitting instances in
  // order emits jobs in order (the shard-merge contract).
  const std::vector<CampaignJob> grid = enumerate_campaign(spec);
  SCOL_REQUIRE(options.shard_count >= 1 && options.shard_index >= 0 &&
                   options.shard_index < options.shard_count,
               + "shard index must lie in [0, shard_count)");

  const std::size_t num_algorithms = spec.algorithms.size();
  const std::size_t num_instances = grid.size() / num_algorithms;
  // This shard's instances, round-robin so every shard sees a mix of
  // scenarios.
  std::vector<std::size_t> local;
  for (std::size_t i = 0; i < num_instances; ++i)
    if (i % static_cast<std::size_t>(options.shard_count) ==
        static_cast<std::size_t>(options.shard_index))
      local.push_back(i);

  struct InstanceOut {
    std::vector<std::string> lines;
    std::vector<SlimStat> stats;  // stats[a] belongs to spec.algorithms[a]
    bool done = false;
  };
  std::vector<InstanceOut> slots(local.size());
  std::mutex emit_mu;
  std::size_t next_to_emit = 0;

  // File-backed scenarios ignore their Rng, so every seed of a spec is
  // the same graph: parse and probe once per distinct spec instead of
  // once per instance (a large .mtx would otherwise pay its dominant
  // setup cost `seeds` times). The memo is the serving layer's
  // GraphStore — the campaign runner is just another client of the same
  // content-addressed cache scol-serve uses, unbounded here because a
  // campaign's file axis is finite and enumerated up front. The cached
  // values are pure functions of the spec, so which worker populates
  // the store cannot affect the stream.
  GraphStore file_store;
  // Specs were validated by enumerate_campaign, so reading the name is
  // a prefix check — no need to re-parse params per instance.
  const auto is_file_spec = [](const std::string& s) {
    return s.substr(0, s.find(':')) == "file";
  };

  const Executor& exec = resolve_executor(options.executor);
  exec.parallel_ranges(local.size(), [&](std::size_t begin, std::size_t end) {
    // One arena per worker chunk, handed to every job's RunContext below:
    // solve() resets (never frees) it, so all jobs of this range reuse the
    // same warmed-up chunks. Arenas are worker-local, hence race-free.
    auto worker_arena = std::make_shared<Arena>();
    for (std::size_t li = begin; li < end; ++li) {
      const std::size_t instance = local[li];
      const std::string& scenario_spec =
          grid[instance * num_algorithms].scenario;
      const std::uint64_t seed = grid[instance * num_algorithms].seed;

      InstanceOut out;
      std::vector<JobRun> runs;
      // Generation is paid once per instance (once per SPEC for
      // seed-independent file scenarios); every algorithm of the grid
      // row reuses this graph.
      const bool file_backed = is_file_spec(scenario_spec);
      std::optional<Graph> local_graph;
      std::shared_ptr<const Graph> shared_graph;
      const Graph* graph = nullptr;
      std::string build_error;
      std::shared_ptr<GraphEntry> file_entry;
      if (file_backed) {
        file_entry = file_store.get_scenario(scenario_spec, seed);
        shared_graph = file_entry->shared_graph();
        graph = shared_graph.get();
        build_error = file_entry->error();
      } else {
        try {
          Rng rng(seed);
          local_graph = build_scenario(scenario_spec, rng);
          graph = &*local_graph;
        } catch (const std::exception& e) {
          build_error = e.what();
        }
      }
      // Lists shared across jobs with the same (k, palette): identical
      // assignments are what make the cross-job verdicts comparable.
      std::map<std::pair<Vertex, Color>, ListAssignment> lists_cache;
      // Exchange pricing: the plan depends only on the graph, so it is
      // built once per instance and every job's report is priced on it.
      std::optional<ShardPlan> shard_plan;
      if (spec.exec_shards > 1 && graph != nullptr)
        shard_plan = ShardPlan::build(*graph, spec.exec_shards);
      // Probed lazily: only when the filter is on AND some algorithm of
      // the axis declares a precondition or a list-size rule.
      std::optional<GraphProbe> local_probe;
      const GraphProbe* probe = nullptr;

      for (std::size_t a = 0; a < num_algorithms; ++a) {
        const AlgorithmInfo& info =
            AlgorithmRegistry::instance().at(spec.algorithms[a]);
        JobRun run;
        run.job = grid[instance * num_algorithms + a];

        if (graph == nullptr) {
          run.report = ColoringReport::failed("scenario build failed: " +
                                              build_error);
          run.report.algorithm = info.name;
          runs.push_back(std::move(run));
          continue;
        }

        ColoringRequest req;
        req.graph = graph;
        req.algorithm = info.name;
        req.params = merged_params(spec, info);

        // Probe filter: answer ineligible cells without solving. The
        // probe is a pure function of the graph, so the verdict — and
        // the stream — stays bit-identical across executors and shards.
        if (spec.probe && probe == nullptr &&
            (info.precondition || info.list_size)) {
          if (file_backed) {
            // Once-memoized on the entry; file_entry stays alive for this
            // whole instance, so the reference is stable.
            probe = &file_entry->probe(spec.probe_options);
          } else {
            local_probe = probe_graph(*graph, spec.probe_options);
            probe = &*local_probe;
          }
        }
        run.admission = admit(info, *graph, spec.k, spec.lists_mode,
                              spec.palette, req.params, probe);
        const Admission& admission = run.admission;
        req.k = admission.k;
        if (run.skipped()) {
          run.report.algorithm = info.name;
          runs.push_back(std::move(run));
          continue;
        }

        const ListAssignment* lists = nullptr;
        if (admission.lists != "none") {
          // Every job that asks for this shape sees the same assignment,
          // under any job executor and shard split.
          const auto key = std::make_pair(admission.k, admission.palette);
          auto it = lists_cache.find(key);
          if (it == lists_cache.end())
            it = lists_cache
                     .emplace(key, admission.build_lists(
                                       graph->num_vertices(), seed))
                     .first;
          lists = &it->second;
          req.lists = lists;
        }

        RunContext ctx;  // single-threaded per job
        ctx.seed = seed;
        ctx.round_budget = spec.round_budget;
        ctx.arena = worker_arena;
        const auto start = std::chrono::steady_clock::now();
        try {
          run.report = solve(req, ctx);
          if (shard_plan) add_exchange_metrics(run.report, *shard_plan);
        } catch (const std::exception& e) {
          run.report = ColoringReport::failed(e.what());
          run.report.algorithm = info.name;
        }
        run.real_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        run.bound = info.color_bound ? info.color_bound(req) : -1;
        oracle_check_job(*graph, lists, run);
        runs.push_back(std::move(run));
      }

      if (graph != nullptr) oracle_cross_check(runs);
      const Graph empty;
      for (const JobRun& run : runs) {
        // Summary-only fast path: with no sink attached, the JSONL lines
        // have no consumer, so skip the per-job Json build + dump (the
        // dominant serialization cost of a grid) entirely. Oracle checks
        // and summary stats above are unaffected.
        if (sink)
          out.lines.push_back(
              job_line(run, scenario_spec, graph != nullptr ? *graph : empty,
                       options.include_timing, spec.exec_shards)
                  .dump());
        SlimStat stat;
        stat.status = run.report.status;
        stat.skipped = run.skipped();
        stat.colors_used = run.report.colors_used;
        stat.rounds = run.report.rounds;
        stat.wall_ms = run.real_wall_ms;
        stat.violations = run.violations.size();
        out.stats.push_back(stat);
      }
      runs.clear();  // full reports die here; only lines + stats survive

      std::lock_guard<std::mutex> lock(emit_mu);
      slots[li] = std::move(out);
      slots[li].done = true;
      while (next_to_emit < slots.size() && slots[next_to_emit].done) {
        for (const auto& line : slots[next_to_emit].lines) sink(line);
        slots[next_to_emit].lines.clear();
        ++next_to_emit;
      }
    }
  });

  // Summary pass, in instance order (deterministic given the reports).
  CampaignResult result;
  result.instances = local.size();
  std::map<std::string, AlgoStats> stats;
  for (const auto& slot : slots) {
    for (std::size_t a = 0; a < slot.stats.size(); ++a) {
      const SlimStat& stat = slot.stats[a];
      AlgoStats& s = stats[spec.algorithms[a]];
      ++s.jobs;
      ++result.jobs;
      if (stat.skipped) {
        // Probe-filtered: no solve ran, so nothing feeds the quantiles.
        ++s.skipped;
        ++result.skipped;
        continue;
      }
      switch (stat.status) {
        case SolveStatus::kColored:
          ++s.colored;
          ++result.colored;
          s.colors.push_back(stat.colors_used);
          break;
        case SolveStatus::kInfeasible:
          ++s.infeasible;
          ++result.infeasible;
          break;
        case SolveStatus::kFailed:
          ++s.failed;
          ++result.failed;
          break;
      }
      s.rounds.push_back(stat.rounds);
      s.wall_ms.push_back(stat.wall_ms);
      s.violations += stat.violations;
      result.oracle_violations += stat.violations;
    }
  }

  Json summary = Json::object();
  {
    Json campaign = Json::object();
    Json scenarios = Json::array();
    for (const auto& s : spec.scenarios) scenarios.push(Json::str(s));
    campaign.set("scenarios", std::move(scenarios));
    Json algorithms = Json::array();
    for (const auto& a : spec.algorithms) algorithms.push(Json::str(a));
    campaign.set("algorithms", std::move(algorithms));
    campaign.set("seed", Json::integer(static_cast<std::int64_t>(spec.seed)));
    campaign.set("seeds", Json::integer(spec.seeds));
    campaign.set("k", Json::integer(spec.k));
    campaign.set("lists", Json::str(spec.lists_mode));
    campaign.set("palette", Json::integer(spec.palette));
    campaign.set("round_budget", Json::integer(spec.round_budget));
    campaign.set("probe", Json::boolean(spec.probe));
    // The probe limits shape which cells skip, so the spec echo must
    // carry them for a summary to be reproducible from itself.
    Json probe_options = Json::object();
    probe_options.set("planarity_limit",
                      Json::integer(spec.probe_options.planarity_limit));
    probe_options.set("girth_limit",
                      Json::integer(spec.probe_options.girth_limit));
    probe_options.set("exact_mad_limit",
                      Json::integer(spec.probe_options.exact_mad_limit));
    probe_options.set("budget", Json::integer(spec.probe_options.budget));
    campaign.set("probe_options", std::move(probe_options));
    // Conditional so pre-sharding summaries keep their exact shape.
    if (spec.exec_shards > 1)
      campaign.set("shards", Json::integer(spec.exec_shards));
    summary.set("campaign", std::move(campaign));
  }
  {
    Json shard = Json::object();
    shard.set("index", Json::integer(options.shard_index));
    shard.set("count", Json::integer(options.shard_count));
    summary.set("shard", std::move(shard));
  }
  summary.set("jobs", Json::integer(static_cast<std::int64_t>(result.jobs)));
  summary.set("instances",
              Json::integer(static_cast<std::int64_t>(result.instances)));
  summary.set("colored",
              Json::integer(static_cast<std::int64_t>(result.colored)));
  summary.set("infeasible",
              Json::integer(static_cast<std::int64_t>(result.infeasible)));
  summary.set("failed",
              Json::integer(static_cast<std::int64_t>(result.failed)));
  summary.set("skipped",
              Json::integer(static_cast<std::int64_t>(result.skipped)));
  summary.set("oracle_violations", Json::integer(static_cast<std::int64_t>(
                                       result.oracle_violations)));
  Json per_algorithm = Json::object();
  for (const auto& [name, s] : stats) {
    Json a = Json::object();
    a.set("jobs", Json::integer(static_cast<std::int64_t>(s.jobs)));
    a.set("colored", Json::integer(static_cast<std::int64_t>(s.colored)));
    a.set("infeasible",
          Json::integer(static_cast<std::int64_t>(s.infeasible)));
    a.set("failed", Json::integer(static_cast<std::int64_t>(s.failed)));
    a.set("skipped", Json::integer(static_cast<std::int64_t>(s.skipped)));
    a.set("oracle_violations",
          Json::integer(static_cast<std::int64_t>(s.violations)));
    a.set("colors_used", quantiles(s.colors));
    a.set("rounds", quantiles(s.rounds));
    a.set("wall_ms", quantiles(s.wall_ms));
    per_algorithm.set(name, std::move(a));
  }
  summary.set("per_algorithm", std::move(per_algorithm));
  result.summary = std::move(summary);
  return result;
}

}  // namespace scol

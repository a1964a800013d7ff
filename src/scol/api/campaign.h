// Campaign runner: sharded scenario x algorithm x seed sweeps over the
// solver API, with a differential-consistency oracle.
//
// A CampaignSpec is a cartesian grid: every (scenario spec, seed) pair is
// an *instance* (one generated graph, cached so all algorithms on it pay
// generation once), and every (instance, algorithm) cell is a *job* (one
// scol::solve() call). run_campaign() shards instances round-robin across
// `shard_count` shards, fans the local shard's instances over a job-level
// Executor (independent of the per-job intra-run executor, which stays
// serial), and streams one JSON object per job — JSONL — through the sink
// in global job order, followed by an aggregate summary in the result.
//
// Determinism contract: the JSONL stream is a pure function of
// (spec, shard) — bit-identical under a serial and a thread-pool job
// executor, and shards recombine into the unsharded stream by merging on
// the "job" field. Per-line wall_ms is therefore zeroed unless
// options.include_timing is set; real times always feed the summary
// quantiles.
//
// The oracle never trusts an algorithm's own checks. Per job it
// revalidates the coloring (proper + list-respecting) and enforces the
// algorithm's registered guarantee (AlgorithmInfo::color_bound). Per
// instance it cross-checks feasibility verdicts: provers
// (caps.proves_infeasibility) that disagree on the same list assignment,
// or an infeasibility proof for uniform k-lists contradicted by any
// validated coloring with <= k distinct colors, are violations.
//
// Probe filtering (CampaignSpec::probe, on by default) makes arbitrary
// inputs — in particular file-backed scenarios, docs/FORMATS.md —
// sweepable with `--algo all`: each instance's graph is probed once
// (io/probe.h) and cells whose algorithm's precondition or list-size
// rule (algorithm_skip_reason) fails are answered as status:"skipped"
// lines carrying the probe's reason, leaving the grid shape and every
// determinism invariant intact.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "scol/api/json.h"
#include "scol/api/params.h"
#include "scol/coloring/types.h"
#include "scol/io/probe.h"
#include "scol/util/executor.h"

namespace scol {

struct CampaignSpec {
  /// Scenario specs ("grid:rows=8,cols=8"); validated against the
  /// ScenarioRegistry (unknown scenario / key / malformed pair throws
  /// before any job runs).
  std::vector<std::string> scenarios;
  /// Registered algorithm names (AlgorithmRegistry).
  std::vector<std::string> algorithms;
  std::uint64_t seed = 1;  ///< first seed of the range
  int seeds = 1;           ///< consecutive seeds per scenario
  /// Palette-ish k for every job; -1 = per-job auto: algorithms that need
  /// lists get max(3, max_degree + 1) on their instance, the rest keep
  /// their own defaults.
  Vertex k = -1;
  std::string lists_mode = "uniform";  ///< "uniform" | "random"
  Color palette = -1;                  ///< random-lists palette (-1 = 4k)
  /// Shared per-job params, overridden per algorithm by algo_params.
  ParamBag params;
  std::vector<std::pair<std::string, ParamBag>> algo_params;
  std::int64_t round_budget = -1;  ///< per-job RunContext round budget
  /// Probe filtering (on by default): each instance's graph is probed
  /// once (io/probe.h) and jobs whose algorithm's registered precondition
  /// or list-size rule fails become status:"skipped" lines (with a
  /// "skip_reason") instead of running into a PreconditionError. This is
  /// what lets `--algo all` sweep an arbitrary file: the grid shape —
  /// and with it sharding, job indices, and stream bit-identity — is
  /// unchanged; ineligible cells are just answered without solving.
  /// Algorithms that declare neither always run, unprobed.
  bool probe = true;
  /// Cost bounds for the per-instance probe (planarity / girth / exact
  /// mad limits). `scol-cli probe` takes the same knobs, so its
  /// verdicts predict a campaign's skips exactly when given the same
  /// values.
  ProbeOptions probe_options;
  /// Exchange pricing shards (p >= 1, `--shards`). With p > 1 each
  /// instance's graph gets a ShardPlan, and every line gains a top-level
  /// "shards" field plus the exchange metrics priced from its ledger
  /// rounds (add_exchange_metrics). Jobs solve serially either way, so
  /// with those five fields removed the stream is the serial stream.
  int exec_shards = 1;
};

/// One cell of the grid. `index` is the job's position in the full grid
/// (stable across shards; the JSONL "job" field); `instance` identifies
/// the (scenario, seed) pair whose cached graph the job runs on.
struct CampaignJob {
  std::size_t index = 0;
  std::size_t instance = 0;
  std::string scenario;
  std::string algorithm;
  std::uint64_t seed = 0;
};

struct CampaignOptions {
  /// Job-level executor (nullptr = serial). The unit of parallel work is
  /// the INSTANCE (all algorithms on one cached graph) — that is what
  /// makes the graph cache thread-free — so a campaign needs more
  /// instances than workers to scale. Jobs themselves always solve
  /// serially.
  const Executor* executor = nullptr;
  int shard_index = 0;
  int shard_count = 1;
  /// Emit real per-line wall_ms instead of 0 (breaks bit-identity of the
  /// stream across executors; summary quantiles are always real).
  bool include_timing = false;
};

struct CampaignResult {
  std::size_t jobs = 0;       ///< jobs run in this shard (incl. skipped)
  std::size_t instances = 0;  ///< graphs generated (one per instance)
  std::size_t colored = 0;
  std::size_t infeasible = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;    ///< probe-filtered jobs (spec.probe)
  std::size_t oracle_violations = 0;
  /// Aggregate summary: per-algorithm status counts and colors / rounds /
  /// wall-time quantiles, oracle totals, shard and spec echo.
  Json summary;
};

/// Receives each JSONL line (no trailing newline), in job order. Passing
/// an empty (default-constructed) sink is the summary-only fast path:
/// per-job JSON serialization is skipped entirely — oracle checks and the
/// aggregate summary still run — which is what `scol-cli campaign
/// --summary-only` and throughput benches use.
using CampaignSink = std::function<void(const std::string& line)>;

/// The full grid in job order (all shards). Throws PreconditionError on
/// an invalid spec — empty axes, unknown algorithm or scenario, malformed
/// scenario spec, bad lists_mode, non-positive seeds.
std::vector<CampaignJob> enumerate_campaign(const CampaignSpec& spec);

/// Runs this shard's slice of the grid. Throws PreconditionError on an
/// invalid spec or shard range; per-job algorithm failures become
/// status:"failed" lines, never exceptions.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options,
                            const CampaignSink& sink);

}  // namespace scol

// One-shot report building: the single code path behind `scol-cli`'s
// default mode, every scol-serve response, and the load generator's
// byte-identity oracle.
//
// A OneShotSpec is the full problem statement of one run — scenario,
// algorithm, palette shape, seed, budgets — and one_shot_report() turns
// it into the exact JSON object scol-cli prints. Because all three
// binaries call THIS function, "a served response is byte-identical to
// the one-shot CLI run" is a structural property, not a test-enforced
// aspiration: there is no second serializer to drift.
//
// Determinism notes baked into this path:
//
//  - random list assignments are a pure function of (seed, k, palette)
//    via Rng::stream — never of leftover generator state — matching the
//    campaign runner, so a cached graph and a freshly built one yield
//    the same lists;
//  - `include_timing=false` zeroes wall_ms (the only nondeterministic
//    report field); scol-serve always runs in this mode and reports real
//    latencies in its envelope telemetry instead;
//  - arena metrics are per-run deltas, so a warm arena (server worker)
//    and a cold one (CLI process) report identical numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "scol/api/json.h"
#include "scol/api/params.h"
#include "scol/coloring/types.h"
#include "scol/graph/graph.h"
#include "scol/util/arena.h"
#include "scol/util/executor.h"

namespace scol {

/// Everything that determines one run's report (except timing).
struct OneShotSpec {
  std::string scenario = "grid";     ///< ScenarioRegistry spec string
  std::string algorithm;             ///< AlgorithmRegistry name (required)
  Vertex k = -1;                     ///< -1 = per-algorithm auto-k
  std::string lists_mode = "uniform";  ///< "uniform" | "random"
  Color palette = -1;                ///< random-lists palette (-1 = 4k)
  std::uint64_t seed = 1;            ///< scenario + algorithm seed
  int threads = 0;                   ///< echoed; >0 = pool inside
  int shards = 0;                    ///< >0 = price exchange on p shards
  std::int64_t round_budget = -1;
  double deadline_ms = -1.0;
  bool validate = true;
  bool with_coloring = false;
  bool include_timing = true;  ///< false → wall_ms forced to 0.0
  ParamBag params;
};

/// Exit status of a one-shot run per the CLI convention: 1 when the
/// report says kFailed, 0 otherwise (kColored and kInfeasible are both
/// answers).
int one_shot_exit_code(const Json& report);

/// The report for `spec` on an already-built graph (the serving path:
/// the graph came from the content-addressed cache). `executor`, when
/// non-null, runs the solve; `arena`, when non-null, is the scratch
/// arena to (re)use — both affect wall time only, never report bytes.
Json one_shot_report_on(const Graph& g, const OneShotSpec& spec,
                        const Executor* executor = nullptr,
                        std::shared_ptr<Arena> arena = nullptr);

/// Builds the scenario from `spec.seed`, then delegates to
/// one_shot_report_on. This is `scol-cli`'s default mode, minus printing.
Json one_shot_report(const OneShotSpec& spec);

}  // namespace scol

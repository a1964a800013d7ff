// ColoringReport: the one way this library reports a solve.
//
// Every coloring entry point — the paper's Theorem 1.3 pipeline, its
// corollaries, and all baselines — answers the same three-way question:
//
//   kColored:    `coloring` is set (proper, list-respecting when lists
//                were given);
//   kInfeasible: the algorithm PROVED no solution exists; `certificate`
//                carries the witness when one is constructive (a
//                (d+1)-clique for Theorem 1.3, a no-SDR K_{Delta+1}
//                component for Corollary 2.1);
//   kFailed:     the run ended without an answer either way (peel stall
//                certifying a violated sparsity promise, greedy stuck,
//                search budget exhausted) — see `failure_reason`.
//
// Diagnostics ride along uniformly: LOCAL rounds with the per-phase
// ledger, wall time, colors used, and algorithm-specific metrics (peel
// count, ball radius, layer count, ...) in a ParamBag.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scol/api/params.h"
#include "scol/coloring/types.h"
#include "scol/local/ledger.h"

namespace scol {

struct SparseResult;  // coloring/sparse.h (kernel-level diagnostics)
struct ShardPlan;     // local/shard.h (exchange pricing partition)

enum class SolveStatus { kColored, kInfeasible, kFailed };

const char* to_string(SolveStatus status);

struct ColoringReport {
  std::string algorithm;
  SolveStatus status = SolveStatus::kFailed;

  /// Set iff status == kColored.
  std::optional<Coloring> coloring;

  /// Constructive infeasibility witness (vertex set); `certificate_kind`
  /// names it ("clique", "no-sdr-clique").
  std::optional<std::vector<Vertex>> certificate;
  std::string certificate_kind;

  /// Human-readable reason when status == kFailed.
  std::string failure_reason;

  /// LOCAL rounds: total and per-phase breakdown. 0 for inherently
  /// sequential algorithms (greedy, exact). solve() keeps
  /// `rounds == ledger.total()`.
  std::int64_t rounds = 0;
  RoundLedger ledger;

  /// Wall-clock time of the run (filled by solve()).
  double wall_ms = 0.0;

  /// Distinct colors in `coloring` (0 otherwise).
  Vertex colors_used = 0;

  /// Budget verdicts from the RunContext (solve() fills these).
  bool deadline_exceeded = false;
  bool round_budget_exceeded = false;

  /// Algorithm-specific diagnostics: "peels", "radius", "layers",
  /// "iterations", "palette", ...
  ParamBag metrics;

  bool ok() const { return status == SolveStatus::kColored; }

  /// Builds a kColored report (rounds synced to the ledger total).
  static ColoringReport colored(Coloring c);
  /// Builds a kInfeasible report with a witness vertex set.
  static ColoringReport infeasible(std::vector<Vertex> witness,
                                   std::string kind);
  /// Builds a kFailed report.
  static ColoringReport failed(std::string reason);

  /// Recomputes `rounds` and `colors_used` from `ledger` / `coloring`.
  void sync_derived_fields();
};

/// Converts the Theorem 1.3 kernel result (coloring or clique, peel
/// records, radius) into a unified report.
ColoringReport report_from_sparse(SparseResult&& r, std::string algorithm);

/// Prices `report`'s LOCAL-model exchange on `plan`: every ledger round
/// sends one update per boundary pair. Appends `shards`,
/// `exchange_messages` (= rounds x boundary_pairs), `boundary_vertices`
/// and `cut_edges` to the metrics bag; every other field is untouched.
void add_exchange_metrics(ColoringReport& report, const ShardPlan& plan);

}  // namespace scol

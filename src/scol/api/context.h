// RunContext: the execution environment a solve runs in.
//
// Bundles everything about *how* to run that is not part of the problem
// statement: the executor (serial vs thread pool), the seed policy for
// randomized algorithms, round/wall budgets, and telemetry callbacks. One
// RunContext can drive many solve() calls; each report carries its own
// ledger, and the same request solved under a SerialExecutor and a
// ThreadPoolExecutor produces bit-identical reports (the determinism
// contract of DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "scol/util/arena.h"
#include "scol/util/executor.h"
#include "scol/util/rng.h"

namespace scol {

/// Emitted by solve(): one SolveStart, one Phase per ledger phase of the
/// finished run, one SolveEnd. Rounds/wall_ms are cumulative for the run.
struct TelemetryEvent {
  enum class Kind { kSolveStart, kPhase, kSolveEnd };
  Kind kind = Kind::kSolveStart;
  std::string algorithm;
  std::string phase;        ///< set for kPhase
  std::int64_t rounds = 0;  ///< phase rounds (kPhase) or total (kSolveEnd)
  double wall_ms = 0.0;     ///< 0 until kSolveEnd
};

using TelemetryCallback = std::function<void(const TelemetryEvent&)>;

/// The execution environment of one or more solve() calls; see the file
/// comment for the determinism contract.
struct RunContext {
  /// nullptr = serial (the library-wide `const Executor*` convention).
  const Executor* executor = nullptr;

  /// Seed for randomized algorithms; a solve() draws all its randomness
  /// from Rng(seed), so reports are reproducible from (request, seed).
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  /// Cap on LOCAL rounds (-1 = unlimited). Algorithms with a native cap
  /// (randomized max_rounds) enforce it; for the rest solve() flags
  /// `round_budget_exceeded` on the report when the run went over.
  std::int64_t round_budget = -1;

  /// Wall-clock budget in milliseconds (-1 = unlimited). solve() cannot
  /// interrupt a running kernel; it flags `deadline_exceeded` post-run.
  double deadline_ms = -1.0;

  /// Optional observer for solve lifecycle events.
  TelemetryCallback telemetry;

  /// When true, solve() independently validates each coloring against the
  /// graph (and lists, if any) before reporting kColored.
  bool validate = false;

  /// Scratch arena for per-run mutable state (level masks, shrunken
  /// palettes, BFS buffers). Created lazily by arena_ref(); shared_ptr so
  /// copied contexts keep sharing one arena. solve() resets it at the
  /// start of every run and reports its allocation counters in the
  /// metrics bag — a context reused across campaign jobs therefore reuses
  /// the same warmed-up chunks (zero steady-state allocation).
  std::shared_ptr<Arena> arena;

  /// The context's arena, created on first use.
  Arena& arena_ref() {
    if (!arena) arena = std::make_shared<Arena>();
    return *arena;
  }

  Rng make_rng() const { return Rng(seed); }
};

}  // namespace scol

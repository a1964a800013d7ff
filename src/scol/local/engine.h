// Synchronous LOCAL-model engine with pluggable executors.
//
// In the LOCAL model each node starts knowing only its identifier (and n,
// plus problem inputs such as its color list) and in every round exchanges
// arbitrary messages with its neighbors. With unbounded messages this is
// equivalent to the state-exchange formulation implemented here: each round
// every node computes its next state from its own state and its neighbors'
// previous states. After r rounds a node's state is a function of its
// labelled radius-r ball — exactly Linial's characterization, which the
// tests verify against the ball oracle.
//
// Execution: a round is a pure map over vertices (reads see only the
// previous round), so the engine runs it through an Executor
// (util/executor.h) — serial by default, chunked thread-pool parallel on
// request — over double-buffered state vectors (no per-round allocation).
// Chunks write disjoint slices of the next-state buffer, so parallel runs
// are bit-identical to serial runs; randomized node programs keep that
// property by drawing per-(vertex, round) Rng streams (Rng::stream) rather
// than sharing a sequential generator.
#pragma once

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/local/ledger.h"
#include "scol/util/executor.h"

namespace scol {

/// Read-only view of a node's neighbors' states during one round.
template <typename State>
class NeighborStates {
 public:
  NeighborStates(const Graph& g, const std::vector<State>& states, Vertex v)
      : nb_(g.neighbors(v)), states_(states) {}

  std::size_t size() const { return nb_.size(); }
  Vertex id(std::size_t i) const { return nb_[i]; }
  const State& state(std::size_t i) const {
    return states_[static_cast<std::size_t>(nb_[i])];
  }

 private:
  std::span<const Vertex> nb_;
  const std::vector<State>& states_;
};

/// How an engine run executes and where it charges its rounds.
struct EngineOptions {
  const Executor* executor = nullptr;  // nullptr = serial
  RoundLedger* ledger = nullptr;
  std::string phase = "engine";
};

/// Runs `rounds` synchronous rounds. `step(v, self, neighbors)` returns the
/// node's next state; all nodes step simultaneously (reads see the previous
/// round). Charges `rounds` to the ledger under `opts.phase` when given.
///
/// Requirements: State is default-constructible (double buffering), and
/// `step` is safe to invoke concurrently for distinct vertices (it must not
/// mutate shared state — node programs are pure by construction).
template <typename State, typename Step>
std::vector<State> run_synchronous(const Graph& g, std::vector<State> states,
                                   int rounds, Step&& step,
                                   const EngineOptions& opts = {}) {
  SCOL_REQUIRE(static_cast<Vertex>(states.size()) == g.num_vertices());
  SCOL_REQUIRE(rounds >= 0);
  const Executor& exec = resolve_executor(opts.executor);
  std::vector<State> next(states.size());
  for (int r = 0; r < rounds; ++r) {
    parallel_for_index(exec, states.size(), [&](std::size_t i) {
      const Vertex v = static_cast<Vertex>(i);
      next[i] = step(v, states[i], NeighborStates<State>(g, states, v));
    });
    states.swap(next);
  }
  if (opts.ledger != nullptr) opts.ledger->charge(opts.phase, rounds);
  return states;
}

/// Like run_synchronous but stops early when no state changed; charges only
/// the rounds actually executed. Returns {states, rounds_run}.
template <typename State, typename Step>
std::pair<std::vector<State>, int> run_until_stable(
    const Graph& g, std::vector<State> states, int max_rounds, Step&& step,
    const EngineOptions& opts = {}) {
  SCOL_REQUIRE(static_cast<Vertex>(states.size()) == g.num_vertices());
  const Executor& exec = resolve_executor(opts.executor);
  std::vector<State> next(states.size());
  int used = 0;
  for (; used < max_rounds; ++used) {
    std::atomic<bool> changed{false};
    exec.parallel_ranges(states.size(), [&](std::size_t begin,
                                            std::size_t end) {
      bool local_changed = false;
      for (std::size_t i = begin; i < end; ++i) {
        const Vertex v = static_cast<Vertex>(i);
        next[i] = step(v, states[i], NeighborStates<State>(g, states, v));
        if (!(next[i] == states[i])) local_changed = true;
      }
      if (local_changed) changed.store(true, std::memory_order_relaxed);
    });
    states.swap(next);
    if (!changed.load(std::memory_order_relaxed)) {
      ++used;
      break;
    }
  }
  if (opts.ledger != nullptr) opts.ledger->charge(opts.phase, used);
  return {std::move(states), used};
}

}  // namespace scol

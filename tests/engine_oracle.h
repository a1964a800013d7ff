// Test oracle: node programs on the synchronous LOCAL model. Each round
// every node computes its next state from its own state and its
// neighbors' previous states — with unbounded messages, exactly the LOCAL
// model — so after r rounds a node's state is a function of its radius-r
// ball (Linial's characterization, which flood_balls_engine checks against
// BFS balls). Every round is one Rounds::round over double-buffered state,
// so programs run and charge through the kernels' seam and are
// bit-identical under every executor.
#pragma once

#include <algorithm>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/local/ledger.h"
#include "scol/local/rounds.h"

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

/// Runs `rounds` synchronous rounds of `step(v, self, neighbors)`, each one
/// Rounds::round charged to `phase`. All nodes step simultaneously (reads
/// see the previous round); `step` must be safe to invoke concurrently for
/// distinct vertices.
template <typename State, typename Step>
std::vector<State> run_synchronous(const Graph& g, std::vector<State> states,
                                   int rounds, Step&& step, Rounds& on,
                                   std::string_view phase = "engine") {
  SCOL_REQUIRE(static_cast<Vertex>(states.size()) == g.num_vertices());
  SCOL_REQUIRE(rounds >= 0);
  std::vector<State> next(states.size());
  for (int r = 0; r < rounds; ++r) {
    on.round(phase, states.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const Vertex v = static_cast<Vertex>(i);
        next[i] = step(v, states[i], NeighborStates<State>(g, states, v));
      }
    });
    states.swap(next);
  }
  return states;
}

/// Serial, uncharged run_synchronous.
template <typename State, typename Step>
std::vector<State> run_synchronous(const Graph& g, std::vector<State> states,
                                   int rounds, Step&& step) {
  RoundLedger scratch;
  Rounds on(scratch);
  return run_synchronous(g, std::move(states), rounds,
                         std::forward<Step>(step), on);
}

/// Flooding: after `radius` rounds (charged to "flood-balls"), node v
/// knows exactly the vertex set of B_radius(v), sorted.
inline std::vector<std::vector<Vertex>> flood_balls_engine(const Graph& g,
                                                           int radius,
                                                           Rounds& on) {
  using State = std::vector<Vertex>;
  std::vector<State> init;
  init.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) init.push_back({v});
  return run_synchronous(
      g, std::move(init), radius,
      [](Vertex, const State& self, NeighborStates<State> nb) {
        State merged = self;
        for (std::size_t i = 0; i < nb.size(); ++i) {
          const State& s = nb.state(i);
          merged.insert(merged.end(), s.begin(), s.end());
        }
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        return merged;
      },
      on, "flood-balls");
}

}  // namespace scol

// Genuine LOCAL node programs on the engine oracle, cross-checked
// against the central implementations: one Linial reduction round, peel
// layering, and per-round properness invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "scol/coloring/kcoloring.h"
#include "scol/coloring/types.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/graph/bfs.h"
#include "scol/local/validate.h"

#include "engine_oracle.h"

namespace scol {
namespace {

TEST(EnginePrograms, PeelLayeringMatchesCentral) {
  // Node program: state = layer (-1 while alive). Each round, an alive
  // node counts alive neighbors; at most `threshold` of them => join the
  // current layer. This is exactly the GPS peeling, run on the engine.
  Rng rng(809);
  const Graph g = gnm(120, 200, rng);
  const Vertex threshold = 4;

  struct S {
    Vertex layer = -1;
    bool operator==(const S&) const = default;
  };
  std::vector<S> states(static_cast<std::size_t>(g.num_vertices()));
  int round = 0;
  for (; round < 200; ++round) {
    bool any_alive = false;
    for (const S& s : states) any_alive |= (s.layer < 0);
    if (!any_alive) break;
    states = run_synchronous(
        g, std::move(states), 1,
        [&](Vertex, const S& self, NeighborStates<S> nb) {
          if (self.layer >= 0) return self;
          Vertex alive = 0;
          for (std::size_t i = 0; i < nb.size(); ++i)
            if (nb.state(i).layer < 0) ++alive;
          S next = self;
          if (alive <= threshold) next.layer = round;
          return next;
        });
  }
  // Central reference: repeated low-degree peeling.
  std::vector<Vertex> layer_ref(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<Vertex> deg(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) deg[static_cast<std::size_t>(v)] = g.degree(v);
  for (Vertex l = 0;; ++l) {
    std::vector<Vertex> peel;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      if (layer_ref[static_cast<std::size_t>(v)] < 0 &&
          deg[static_cast<std::size_t>(v)] <= threshold)
        peel.push_back(v);
    if (peel.empty()) break;
    for (Vertex v : peel) layer_ref[static_cast<std::size_t>(v)] = l;
    for (Vertex v : peel)
      for (Vertex w : g.neighbors(v))
        if (layer_ref[static_cast<std::size_t>(w)] < 0)
          --deg[static_cast<std::size_t>(w)];
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(states[static_cast<std::size_t>(v)].layer,
              layer_ref[static_cast<std::size_t>(v)])
        << "vertex " << v;
}

TEST(EnginePrograms, ReduceOneColorClassPerRoundOnEngine) {
  // The kcoloring reduce phase as a node program: in the round for value
  // c, nodes with color c recolor to the least color in [0, target) not
  // used by a neighbor. Properness must hold after every round.
  Rng rng(811);
  const Graph g = random_regular(90, 3, rng);
  std::vector<Color> colors(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    colors[static_cast<std::size_t>(v)] = v;  // ids = proper n-coloring
  const Color target = 4;
  for (Color c = static_cast<Color>(g.num_vertices()) - 1; c >= target; --c) {
    colors = run_synchronous(
        g, std::move(colors), 1,
        [&](Vertex, const Color& self, NeighborStates<Color> nb) {
          if (self != c) return self;
          std::vector<char> used(static_cast<std::size_t>(target), 0);
          for (std::size_t i = 0; i < nb.size(); ++i)
            if (nb.state(i) >= 0 && nb.state(i) < target)
              used[static_cast<std::size_t>(nb.state(i))] = 1;
          Color pick = 0;
          while (used[static_cast<std::size_t>(pick)]) ++pick;
          return pick;
        });
    EXPECT_TRUE(is_partial_proper(g, colors)) << "after value " << c;
  }
  expect_proper_with_at_most(g, colors, target);
}

TEST(EnginePrograms, CentralKColoringMatchesPalette) {
  // The central distributed_degree_coloring must produce colors within
  // the same palette the engine program would; cross-check the invariant
  // "every intermediate Linial palette is proper" via the final result
  // being proper and within [0, d+1).
  Rng rng(821);
  for (Vertex d : {3, 5}) {
    const Graph g = random_regular(128, d, rng);
    RoundLedger ledger;
    Rounds rounds(ledger);
    const DegreeColoringResult r = distributed_degree_coloring(g, d, rounds);
    expect_proper_with_at_most(g, r.coloring, d + 1);
  }
}

TEST(EnginePrograms, BfsLayersViaEngine) {
  // Distance computation as a node program: state = current distance
  // estimate; after k rounds, estimates within radius k are exact.
  const Graph g = grid(9, 9);
  const Vertex source = lattice_id(4, 4, 9);
  std::vector<Vertex> est(81, -1);
  est[static_cast<std::size_t>(source)] = 0;
  const int rounds = 8;
  est = run_synchronous(
      g, std::move(est), rounds,
      [](Vertex, const Vertex& self, NeighborStates<Vertex> nb) {
        Vertex best = self;
        for (std::size_t i = 0; i < nb.size(); ++i) {
          const Vertex d = nb.state(i);
          if (d >= 0 && (best < 0 || d + 1 < best)) best = d + 1;
        }
        return best;
      });
  const auto ref = bfs_distances(g, source);
  for (Vertex v = 0; v < 81; ++v) {
    if (ref[static_cast<std::size_t>(v)] <= rounds) {
      EXPECT_EQ(est[static_cast<std::size_t>(v)],
                ref[static_cast<std::size_t>(v)]);
    }
  }
}

}  // namespace
}  // namespace scol

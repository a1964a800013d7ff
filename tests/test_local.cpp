// LOCAL semantics on the engine oracle: flooding r rounds == radius-r
// balls (Linial's characterization), ledger accounting, validators.
#include <gtest/gtest.h>

#include <algorithm>

#include "scol/coloring/types.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/graph/bfs.h"
#include "scol/local/ledger.h"
#include "scol/local/rounds.h"
#include "scol/local/validate.h"

#include "engine_oracle.h"

namespace scol {
namespace {

TEST(Engine, FloodEqualsBallOracle) {
  Rng rng(113);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = gnm(25, 40, rng);
    for (int r : {0, 1, 2, 3}) {
      RoundLedger ledger;
      Rounds rounds(ledger);
      const auto flooded = flood_balls_engine(g, r, rounds);
      EXPECT_EQ(ledger.total(), r);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        auto oracle = ball(g, v, r);
        std::sort(oracle.begin(), oracle.end());
        EXPECT_EQ(flooded[static_cast<std::size_t>(v)], oracle)
            << "v=" << v << " r=" << r;
      }
    }
  }
}

TEST(Engine, StepSeesPreviousRoundOnly) {
  // Synchronous semantics: a "copy my left neighbor" program on a path
  // shifts values by exactly one per round.
  const Graph p = path(5);
  std::vector<int> init{10, 0, 0, 0, 0};
  auto out = run_synchronous(
      p, init, 3,
      [](Vertex v, const int& self, NeighborStates<int> nb) {
        // Take the max of self and neighbors-with-smaller-id values.
        int best = self;
        for (std::size_t i = 0; i < nb.size(); ++i)
          if (nb.id(i) < v) best = std::max(best, nb.state(i));
        return best;
      });
  EXPECT_EQ(out, (std::vector<int>{10, 10, 10, 10, 0}));
}

TEST(Ledger, PhasesAccumulate) {
  RoundLedger ledger;
  ledger.charge("a", 3);
  ledger.charge("b", 4);
  ledger.charge("a", 5);
  EXPECT_EQ(ledger.total(), 12);
  EXPECT_EQ(ledger.phase("a"), 8);
  EXPECT_EQ(ledger.phase("b"), 4);
  EXPECT_EQ(ledger.phase("missing"), 0);
  RoundLedger other;
  other.charge("b", 1);
  ledger.merge(other);
  EXPECT_EQ(ledger.phase("b"), 5);
}

TEST(Validate, ProperColoringChecks) {
  const Graph c4 = cycle(4);
  Coloring good{0, 1, 0, 1};
  EXPECT_NO_THROW(expect_proper(c4, good));
  Coloring bad{0, 1, 0, 0};
  EXPECT_THROW(expect_proper(c4, bad), InternalError);
  Coloring partial{0, 1, kUncolored, 1};
  EXPECT_THROW(expect_proper(c4, partial), InternalError);
  EXPECT_TRUE(is_partial_proper(c4, partial));
}

TEST(Validate, ListChecks) {
  const Graph p = path(3);
  const ListAssignment lists =
      ListAssignment::from_lists({{1, 2}, {3, 4}, {1, 5}});
  Coloring ok{1, 3, 5};
  EXPECT_NO_THROW(expect_proper_list_coloring(p, ok, lists));
  Coloring off_list{1, 3, 2};
  EXPECT_THROW(expect_proper_list_coloring(p, off_list, lists), InternalError);
  EXPECT_FALSE(respects_lists(off_list, lists));
}

TEST(Validate, ColorCountCheck) {
  const Graph k3 = complete(3);
  Coloring c{0, 1, 2};
  EXPECT_NO_THROW(expect_proper_with_at_most(k3, c, 3));
  EXPECT_THROW(expect_proper_with_at_most(k3, c, 2), InternalError);
}

TEST(Types, UniformAndRandomLists) {
  const ListAssignment u = uniform_lists(5, 3);
  EXPECT_TRUE(u.canonical());
  EXPECT_EQ(u.min_list_size(), 3u);
  Rng rng(127);
  const ListAssignment r = random_lists(20, 4, 9, rng);
  EXPECT_TRUE(r.canonical());
  EXPECT_EQ(r.min_list_size(), 4u);
  for (Vertex v = 0; v < 20; ++v)
    for (Color c : r.of(v)) EXPECT_LT(c, 9);
}

}  // namespace
}  // namespace scol

// Distributed (Δ+1)-coloring: Linial parameters, correctness across
// families, round accounting (log* n + palette behaviour).
#include <gtest/gtest.h>

#include "scol/coloring/kcoloring.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

// Degree coloring with its rounds charged to a throwaway ledger.
DegreeColoringResult degree_coloring(const Graph& g, Vertex dmax) {
  RoundLedger ledger;
  Rounds rounds(ledger);
  return distributed_degree_coloring(g, dmax, rounds);
}

TEST(Linial, NextPaletteShrinksFast) {
  // From n colors at degree 6, a handful of steps reaches O(d^2)-ish.
  std::int64_t k = 1'000'000;
  int steps = 0;
  while (true) {
    const std::int64_t next = linial_next_palette(k, 6);
    if (next >= k) break;
    k = next;
    ++steps;
  }
  EXPECT_LE(steps, 6);        // log*-style convergence
  EXPECT_LE(k, 5000);         // fixpoint palette is poly(d)
}

TEST(KColoring, ProperOnRegularGraphs) {
  Rng rng(167);
  for (Vertex d : {3, 4, 6}) {
    const Graph g = random_regular(80, d, rng);
    const DegreeColoringResult r = degree_coloring(g, d);
    expect_proper_with_at_most(g, r.coloring, d + 1);
    for (Color c : r.coloring) {
      EXPECT_GE(c, 0);
      EXPECT_LE(c, d);
    }
  }
}

TEST(KColoring, ProperOnIrregularWithSlack) {
  Rng rng(173);
  const Graph g = gnm(100, 180, rng);
  const Vertex dmax = g.max_degree();
  const DegreeColoringResult r = degree_coloring(g, dmax);
  expect_proper_with_at_most(g, r.coloring, dmax + 1);
}

TEST(KColoring, RoundsScaleGently) {
  // Above the Linial fixpoint the round count is essentially independent
  // of n (log*-style): quadrupling n costs at most a couple more rounds.
  Rng rng(179);
  const auto rounds_at = [&rng](Vertex n) {
    RoundLedger ledger;
    Rounds rounds(ledger);
    distributed_degree_coloring(random_regular(n, 4, rng), 4, rounds);
    return ledger.total();
  };
  const std::int64_t rounds_mid = rounds_at(4096);
  EXPECT_LE(rounds_at(16384), rounds_mid + 4);
}

TEST(KColoring, LedgerCharged) {
  Rng rng(181);
  const Graph g = random_regular(60, 4, rng);
  RoundLedger ledger;
  Rounds rounds(ledger);
  distributed_degree_coloring(g, 4, rounds, "test-phase");
  EXPECT_EQ(ledger.phase("test-phase"), ledger.total());
  EXPECT_GT(ledger.total(), 0);
}

TEST(KColoring, SmallGraphShortCircuit) {
  const Graph k3 = complete(3);
  const DegreeColoringResult r = degree_coloring(k3, 2);
  expect_proper_with_at_most(k3, r.coloring, 3);
}

TEST(KColoring, EdgelessGraph) {
  const Graph g = Graph::from_edges(5, {});
  const DegreeColoringResult r = degree_coloring(g, 1);
  expect_proper_with_at_most(g, r.coloring, 2);
}

TEST(KColoring, RejectsUnderestimatedDegree) {
  const Graph k5 = complete(5);
  EXPECT_THROW(degree_coloring(k5, 3), PreconditionError);
}

TEST(KColoring, GridAndPlanar) {
  const Graph g = grid(12, 12);
  const DegreeColoringResult r = degree_coloring(g, 4);
  expect_proper_with_at_most(g, r.coloring, 5);
}

}  // namespace
}  // namespace scol

// Randomized (deg+1)-list-coloring (§6 remark / Question 6.2): validity,
// O(log n)-style round scaling, list preconditions, determinism per seed.
#include <gtest/gtest.h>

#include <cmath>

#include "scol/coloring/randomized.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/local/validate.h"

namespace scol {
namespace {

ListAssignment deg_plus_one_lists(const Graph& g, Color palette, Rng& rng) {
  ListAssignment out;
  std::vector<Color> all(static_cast<std::size_t>(palette));
  for (Color c = 0; c < palette; ++c) all[static_cast<std::size_t>(c)] = c;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    rng.shuffle(all);
    std::vector<Color> list(all.begin(), all.begin() + g.degree(v) + 1);
    std::sort(list.begin(), list.end());
    out.append(list);
  }
  return out;
}

TEST(Randomized, ValidOnFamilies) {
  Rng rng(701);
  for (int t = 0; t < 3; ++t) {
    for (const Graph& g :
         {random_regular(200, 4, rng), grid(12, 12), gnm(180, 300, rng)}) {
      Rng lists_rng(702 + static_cast<std::uint64_t>(t));
      const ListAssignment lists = deg_plus_one_lists(
          g, static_cast<Color>(g.max_degree() + 4), lists_rng);
      Rng run_rng(703 + static_cast<std::uint64_t>(t));
      const ColoringReport r = randomized_list_coloring(g, lists, run_rng);
      expect_proper_list_coloring(g, *r.coloring, lists);
    }
  }
}

TEST(Randomized, LogarithmicRoundScaling) {
  // O(log n) w.h.p.: rounds at n=4096 should stay within a small factor of
  // rounds at n=256 (log ratio = 1.5).
  Rng rng(709);
  std::int64_t small = 0, large = 0;
  {
    const Graph g = random_regular(256, 4, rng);
    Rng rr(1);
    small = randomized_list_coloring(g, deg_plus_one_lists(g, 9, rng), rr).rounds;
  }
  {
    const Graph g = random_regular(4096, 4, rng);
    Rng rr(1);
    large = randomized_list_coloring(g, deg_plus_one_lists(g, 9, rng), rr).rounds;
  }
  EXPECT_LE(large, 4 * small + 16);
}

TEST(Randomized, PathWithTwoListsWouldViolatePrecondition) {
  // Internal path vertices have degree 2, so 2-lists violate (deg+1).
  const Graph p = path(10);
  EXPECT_THROW(
      {
        Rng rng(5);
        randomized_list_coloring(p, uniform_lists(10, 2), rng);
      },
      PreconditionError);
}

TEST(Randomized, SeedDeterminism) {
  Rng g_rng(719);
  const Graph g = gnm(100, 180, g_rng);
  Rng l_rng(720);
  const ListAssignment lists =
      deg_plus_one_lists(g, static_cast<Color>(g.max_degree() + 3), l_rng);
  Rng r1(42), r2(42);
  const auto a = randomized_list_coloring(g, lists, r1);
  const auto b = randomized_list_coloring(g, lists, r2);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Randomized, CliqueWithExactLists) {
  // K_5 with (deg+1) = 5-lists: always colorable, randomized finds it.
  const Graph k5 = complete(5);
  Rng rng(727);
  const ColoringReport r =
      randomized_list_coloring(k5, uniform_lists(5, 5), rng);
  expect_proper_list_coloring(k5, *r.coloring, uniform_lists(5, 5));
}

TEST(Randomized, LedgerCharged) {
  const Graph g = grid(8, 8);
  Rng rng(733);
  const auto r = randomized_list_coloring(g, uniform_lists(64, 5), rng);
  EXPECT_EQ(r.ledger.phase("randomized-coloring"), r.rounds);
  EXPECT_EQ(r.rounds, 2 * r.metrics.get_int("iterations", -1));
}

// The shared propose/resolve kernel: the two exhaustion causes (no free
// list color; no convergence within the cap) abandon under kAbandon and
// throw under kCheckFail.
TEST(ProposeResolve, EmptyListIsExhaustedInTheFirstIteration) {
  const Graph g = path(3);
  const ListAssignment lists = ListAssignment::from_lists({{0, 1}, {}, {0}});
  RoundLedger ledger;
  Rounds rounds(ledger);
  EXPECT_FALSE(propose_resolve_coloring(g, lists, 11, rounds, 50,
                                        OnExhausted::kAbandon)
                   .has_value());
  EXPECT_EQ(ledger.phase("randomized-coloring"), 2);  // one iteration
  EXPECT_THROW(propose_resolve_coloring(g, lists, 11, rounds, 50,
                                        OnExhausted::kCheckFail),
               InternalError);
}

TEST(ProposeResolve, IterationCapIsExhaustion) {
  // Both ends can only ever propose color 0, so they clash forever.
  const Graph g = path(2);
  const ListAssignment lists = ListAssignment::from_lists({{0}, {0}});
  RoundLedger ledger;
  Rounds rounds(ledger);
  EXPECT_FALSE(propose_resolve_coloring(g, lists, 13, rounds, 7,
                                        OnExhausted::kAbandon)
                   .has_value());
  EXPECT_EQ(ledger.phase("randomized-coloring"), 2 * 7);
  EXPECT_THROW(propose_resolve_coloring(g, lists, 13, rounds, 7,
                                        OnExhausted::kCheckFail),
               InternalError);
}

TEST(ProposeResolve, EmptyGraphTakesNoIterations) {
  RoundLedger ledger;
  Rounds rounds(ledger);
  const auto c = propose_resolve_coloring(Graph::from_edges(0, {}),
                                          ListAssignment(), 17, rounds, 5,
                                          OnExhausted::kAbandon);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->empty());
  // The phase is opened even though no round runs.
  ASSERT_EQ(ledger.breakdown().size(), 1u);
  EXPECT_EQ(ledger.phase("randomized-coloring"), 0);
}

}  // namespace
}  // namespace scol

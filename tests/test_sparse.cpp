// End-to-end Theorem 1.3: d-list-colorings across families, clique
// certificates, promise-violation detection, peel accounting (Lemma 3.1),
// determinism, and ID-permutation robustness.
#include <gtest/gtest.h>

#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/coloring/sparse.h"
#include "scol/flow/density.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/special.h"
#include "scol/local/validate.h"
#include "scol/util/thread_pool.h"

namespace scol {
namespace {

void expect_colors(const Graph& g, Vertex d, const ListAssignment& lists,
                   const SparseOptions& opts = {}) {
  const SparseResult r = list_color_sparse(g, d, lists, opts);
  ASSERT_TRUE(r.coloring.has_value()) << describe(g);
  expect_proper_list_coloring(g, *r.coloring, lists);
  EXPECT_FALSE(r.clique.has_value());
  EXPECT_GT(r.ledger.total(), 0);
  // Lemma 3.1 per peel: |A_i| >= n_i / (3d)^3 at the paper radius.
  if (opts.radius_override <= 0) {
    for (const PeelRecord& rec : r.peels) {
      EXPECT_GE(static_cast<double>(rec.num_happy),
                static_cast<double>(rec.graph_size) /
                    ((3.0 * d) * (3.0 * d) * (3.0 * d)));
    }
  }
}

struct FamilyCase {
  const char* name;
  Vertex d;
  std::uint64_t seed;
};

class SparseFamilies : public ::testing::TestWithParam<FamilyCase> {
 protected:
  Graph make(const FamilyCase& c, Rng& rng) const {
    const std::string name = c.name;
    if (name == "regular3") return random_regular(180, 3, rng);
    if (name == "regular4") return random_regular(180, 4, rng);
    if (name == "regular6") return random_regular(150, 6, rng);
    if (name == "grid") return grid(13, 13);
    if (name == "stacked") return random_stacked_triangulation(170, rng);
    if (name == "diagonals") return grid_random_diagonals(12, 12, rng);
    if (name == "forest2") return random_forest_union(160, 2, rng);
    if (name == "hex") return hex_patch(12, 12);
    if (name == "gnm") return gnm(170, 230, rng);
    if (name == "cycle") return cycle(90);
    throw std::logic_error("unknown family");
  }
};

TEST_P(SparseFamilies, UniformLists) {
  const FamilyCase c = GetParam();
  Rng rng(c.seed);
  const Graph g = make(c, rng);
  ASSERT_LE(mad_ceiling(g), c.d) << "test family must satisfy the promise";
  expect_colors(g, c.d, uniform_lists(g.num_vertices(), c.d));
}

TEST_P(SparseFamilies, RandomLists) {
  const FamilyCase c = GetParam();
  Rng rng(c.seed + 1);
  const Graph g = make(c, rng);
  const ListAssignment lists =
      random_lists(g.num_vertices(), c.d, static_cast<Color>(3 * c.d), rng);
  expect_colors(g, c.d, lists);
}

INSTANTIATE_TEST_SUITE_P(
    Families, SparseFamilies,
    ::testing::Values(FamilyCase{"regular3", 3, 421},
                      FamilyCase{"regular4", 4, 431},
                      FamilyCase{"regular6", 6, 433},
                      FamilyCase{"grid", 4, 439},
                      FamilyCase{"stacked", 6, 443},
                      FamilyCase{"diagonals", 6, 449},
                      FamilyCase{"forest2", 4, 457},
                      FamilyCase{"hex", 3, 461},
                      FamilyCase{"gnm", 4, 463},
                      FamilyCase{"cycle", 3, 467}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.name);
    });

TEST(Sparse, FindsPlantedClique) {
  Rng rng(479);
  Graph base = random_forest_union(120, 2, rng);
  std::vector<Edge> edges = base.edges();
  for (Vertex i = 50; i < 55; ++i)
    for (Vertex j = i + 1; j < 55; ++j)
      if (!base.has_edge(i, j)) edges.emplace_back(i, j);
  const Graph g = Graph::from_edges(120, edges);
  // d = 4: K_5 = K_{d+1} present.
  const SparseResult r =
      list_color_sparse(g, 4, uniform_lists(120, 4));
  ASSERT_TRUE(r.clique.has_value());
  EXPECT_EQ(r.clique->size(), 5u);
  EXPECT_FALSE(r.coloring.has_value());
}

TEST(Sparse, KDPlusOneWithMadEqualD) {
  // K_{d+1} itself has mad = d; the clique branch must fire, not a stall.
  const SparseResult r = list_color_sparse(complete(5), 4, uniform_lists(5, 4));
  ASSERT_TRUE(r.clique.has_value());
}

TEST(Sparse, StallsWhenPromiseViolated) {
  Rng rng(487);
  const Graph g = random_regular(80, 6, rng);  // mad = 6
  EXPECT_THROW(list_color_sparse(g, 3, uniform_lists(80, 3)),
               PreconditionError);
}

TEST(Sparse, RejectsBadArguments) {
  const Graph g = cycle(6);
  EXPECT_THROW(list_color_sparse(g, 2, uniform_lists(6, 2)),
               PreconditionError);  // d < 3
  EXPECT_THROW(list_color_sparse(g, 3, uniform_lists(6, 2)),
               PreconditionError);  // lists too small
  const ListAssignment unsorted = ListAssignment::from_lists(
      std::vector<std::vector<Color>>(6, {2, 1, 0}));
  EXPECT_THROW(list_color_sparse(g, 3, unsorted), PreconditionError);
}

TEST(Sparse, Deterministic) {
  Rng rng(491);
  const Graph g = random_stacked_triangulation(120, rng);
  const ListAssignment lists = random_lists(120, 6, 14, rng);
  const SparseResult a = list_color_sparse(g, 6, lists);
  const SparseResult b = list_color_sparse(g, 6, lists);
  EXPECT_EQ(*a.coloring, *b.coloring);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
}

TEST(Sparse, IdPermutationRobust) {
  Rng rng(499);
  const Graph g = grid(10, 10);
  std::vector<Vertex> perm(100);
  for (Vertex v = 0; v < 100; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  const Graph h = permute(g, perm);
  const SparseResult r = list_color_sparse(h, 4, uniform_lists(100, 4));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(h, *r.coloring);
}

TEST(Sparse, ListsLargerThanDAllowed) {
  Rng rng(503);
  const Graph g = grid(9, 9);
  const ListAssignment lists = random_lists(81, 7, 20, rng);  // 7 > d = 4
  expect_colors(g, 4, lists);
}

TEST(Sparse, DisconnectedGraph) {
  Rng rng(509);
  const Graph g = disjoint_union(grid(7, 7), cycle(31));
  expect_colors(g, 4, uniform_lists(g.num_vertices(), 4));
}

TEST(Sparse, EmptyAndTinyGraphs) {
  const SparseResult r0 =
      list_color_sparse(Graph::from_edges(0, {}), 3, ListAssignment{});
  EXPECT_TRUE(r0.coloring.has_value());
  const SparseResult r1 =
      list_color_sparse(Graph::from_edges(1, {}), 3, uniform_lists(1, 3));
  ASSERT_TRUE(r1.coloring.has_value());
  const SparseResult r2 = list_color_sparse(path(2), 3, uniform_lists(2, 3));
  ASSERT_TRUE(r2.coloring.has_value());
  expect_proper(path(2), *r2.coloring);
}

TEST(Sparse, MultiplePeelsWithPoorVertices) {
  // A sparse graph with high-degree hubs: hubs are poor, so the first peel
  // cannot take everything and the extension walks through >= 2 levels.
  Rng rng(521);
  Graph base = random_forest_union(150, 2, rng);
  std::vector<Edge> edges = base.edges();
  // Hub 0: connect to 20 scattered vertices (degree > d).
  for (Vertex i = 0; i < 20; ++i) {
    const Vertex w = static_cast<Vertex>(7 * i + 3);
    if (!base.has_edge(0, w) && w != 0) edges.emplace_back(0, w);
  }
  const Graph g = Graph::from_edges(150, edges);
  const Vertex d = std::max<Vertex>(4, mad_ceiling(g));
  ASSERT_GT(g.max_degree(), d);  // hub is poor
  const SparseResult r =
      list_color_sparse(g, d, uniform_lists(150, static_cast<Color>(d)));
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper_list_coloring(g, *r.coloring,
                              uniform_lists(150, static_cast<Color>(d)));
  EXPECT_GE(r.peels.size(), 2u);
}

TEST(Sparse, SmallRadiusOverrideStillValidWhenItSucceeds) {
  // Ablation handle: tiny radii void the Lemma 3.1 guarantee but not the
  // validity of whatever the algorithm produces.
  const Graph g = grid(11, 11);
  SparseOptions opts;
  opts.radius_override = 2;
  const SparseResult r =
      list_color_sparse(g, 4, uniform_lists(121, 4), opts);
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

TEST(Sparse, RadiusOneStallsOnTorusGrid) {
  // The torus grid is 4-regular and triangle-free, so radius-1 balls are
  // stars: Gallai trees without low-degree witnesses — peeling stalls at
  // that radius (and the stall is reported, not silently miscolored).
  const Graph g = torus_grid(6, 10);
  SparseOptions opts;
  opts.radius_override = 1;
  EXPECT_THROW(list_color_sparse(g, 4, uniform_lists(60, 4), opts),
               PreconditionError);
  // With radius 2 the C4s become visible and the run succeeds.
  opts.radius_override = 2;
  const SparseResult r = list_color_sparse(g, 4, uniform_lists(60, 4), opts);
  ASSERT_TRUE(r.coloring.has_value());
  expect_proper(g, *r.coloring);
}

// Pinned reports of the Theorem 1.3 family. The tight rows reach the
// all-tight root-ball path (regular graphs with k = degree); the radius
// rows color many small surplus balls per level. A change in the root-ball
// step that alters a coloring, a round count or the arena footprint fails
// here, under the serial executor and a thread pool alike.
struct PinnedRun {
  const char* algorithm;
  const char* scenario;
  Color k;
  Color palette;  // 0 = uniform k-lists, else random k-subsets
  Vertex radius;  // 0 = the paper radius
  std::uint64_t coloring_digest;
  std::int64_t rounds;
  std::int64_t arena_bytes;
};

std::uint64_t fnv1a(const Coloring& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Color x : c) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x));
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Sparse, RootBallReportsArePinned) {
  const PinnedRun runs[] = {
      {"planar6", "torus-tri", 6, 0, 0, 8905620194912579110ULL, 30585, 2632},
      {"planar6", "torus-tri:rows=6,cols=10", 6, 9, 0,
       15173993590786560841ULL, 30137, 2468},
      {"planar6", "planar:n=2000", 6, 0, 0,
       10216043081776010540ULL, 315157, 114040},
      {"nice", "torus", 4, 0, 0, 1611069547038922599ULL, 37953, 4616},
      {"nice", "torus-tri:rows=6,cols=8", 6, 0, 0,
       12245807249482391807ULL, 28458, 1928},
      {"sparse", "torus:rows=16,cols=16", 4, 0, 0,
       13519023684632212039ULL, 42210, 8456},
      {"sparse", "torus:rows=10,cols=12", 4, 5, 0,
       11731707000557389324ULL, 32135, 3968},
      {"sparse", "torus:rows=16,cols=64", 4, 6, 4,
       6858192341123257459ULL, 835, 33800},
      {"sparse", "torus-tri:rows=12,cols=40", 6, 0, 2,
       878252585840910849ULL, 661, 19688},
      {"planar4-trianglefree", "torus", 4, 0, 0,
       1611069547038922599ULL, 37955, 4760},
      {"planar4-trianglefree", "hex:rows=24,cols=24", 4, 0, 0,
       4351167656851202119ULL, 60180, 19016},
  };
  ThreadPoolExecutor pool(4, /*grain=*/16);
  for (const PinnedRun& run : runs) {
    SCOPED_TRACE(std::string(run.algorithm) + " " + run.scenario);
    Rng gen_rng(1);
    const Graph g = build_scenario(run.scenario, gen_rng);
    Rng list_rng(2);
    const ListAssignment lists =
        run.palette > 0
            ? random_lists(g.num_vertices(), run.k, run.palette, list_rng)
            : uniform_lists(g.num_vertices(), run.k);
    ColoringRequest req = make_request(run.algorithm, g, lists);
    req.k = run.k;
    if (run.radius > 0) req.params.set_int("radius", run.radius);
    for (const Executor* exec : {static_cast<const Executor*>(nullptr),
                                 static_cast<const Executor*>(&pool)}) {
      RunContext ctx;
      ctx.executor = exec;
      const ColoringReport r = solve(req, ctx);
      ASSERT_EQ(r.status, SolveStatus::kColored) << r.failure_reason;
      expect_proper_list_coloring(g, *r.coloring, lists);
      EXPECT_EQ(fnv1a(*r.coloring), run.coloring_digest);
      EXPECT_EQ(r.rounds, run.rounds);
      EXPECT_EQ(r.metrics.get_int("arena_bytes", -1), run.arena_bytes);
    }
  }
}

}  // namespace
}  // namespace scol

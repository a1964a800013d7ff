// Generator invariants: sizes, degrees, girth, planarity, regularity,
// bipartiteness, Klein-bottle structure — and, for the web-scale
// families (gen/scale.h), edge-count exactness, degree-distribution
// shape, per-seed determinism, and campaign JSONL bit-identity across
// job counts.
#include <cmath>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scol/api/campaign.h"
#include "scol/flow/density.h"
#include "scol/gen/circulant.h"
#include "scol/gen/lattice.h"
#include "scol/gen/planar_random.h"
#include "scol/gen/random.h"
#include "scol/gen/scale.h"
#include "scol/gen/special.h"
#include "scol/graph/components.h"
#include "scol/graph/girth.h"
#include "scol/planarity/planarity.h"
#include "scol/serve/hash.h"
#include "scol/util/executor.h"

namespace scol {
namespace {

TEST(Gen, GridBasics) {
  const Graph g = grid(4, 6);
  EXPECT_EQ(g.num_vertices(), 24);
  EXPECT_EQ(g.num_edges(), 4 * 5 + 6 * 3);
  EXPECT_EQ(girth(g), 4);
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Gen, TorusAndCylinder) {
  const Graph t = torus_grid(5, 7);
  EXPECT_EQ(t.num_edges(), 2 * 35);
  for (Vertex v = 0; v < t.num_vertices(); ++v) EXPECT_EQ(t.degree(v), 4);
  const Graph c = cylinder(5, 7);
  EXPECT_EQ(c.num_edges(), 5 * 7 + 5 * 6);
}

TEST(Gen, KleinGridStructure) {
  const Graph k = klein_grid(5, 7);
  EXPECT_EQ(k.num_vertices(), 35);
  // Quadrangulation of a closed surface: 4-regular.
  for (Vertex v = 0; v < k.num_vertices(); ++v) EXPECT_EQ(k.degree(v), 4);
  EXPECT_EQ(k.num_edges(), 2 * 35);
  EXPECT_EQ(girth(k), 4);
}

TEST(Gen, HexPatchGirthSix) {
  const Graph h = hex_patch(8, 10);
  EXPECT_EQ(girth(h), 6);
  EXPECT_LE(h.max_degree(), 3);
  EXPECT_TRUE(is_planar(h));
}

TEST(Gen, CirculantAndPowers) {
  const Graph c = cycle_power(11, 3);
  for (Vertex v = 0; v < 11; ++v) EXPECT_EQ(c.degree(v), 6);
  const Graph p = path_power(10, 3);
  EXPECT_EQ(p.num_edges(), 9 + 8 + 7);
  EXPECT_EQ(cycle_power_chromatic_number(12, 3), 4);
  EXPECT_EQ(cycle_power_chromatic_number(13, 3), 5);
  EXPECT_EQ(cycle_power_chromatic_number(14, 3), 5);
}

TEST(Gen, StackedTriangulationIsMaximalPlanar) {
  Rng rng(89);
  const Graph g = random_stacked_triangulation(30, rng);
  EXPECT_EQ(g.num_edges(), 3 * 30 - 6);
  EXPECT_TRUE(is_planar(g));
  EXPECT_TRUE(is_connected(g));
  EXPECT_LT(maximum_average_degree(g).value(), 6.0);
}

TEST(Gen, GridRandomDiagonalsDegrees) {
  Rng rng(97);
  const Graph g = grid_random_diagonals(6, 6, rng);
  EXPECT_TRUE(is_planar(g));
  EXPECT_EQ(g.num_edges(),
            static_cast<std::int64_t>(6 * 5 * 2 + 5 * 5));  // grid + diagonals
}

TEST(Gen, RandomRegularIsRegular) {
  Rng rng(101);
  for (Vertex d : {3, 4, 6}) {
    const Graph g = random_regular(50, d, rng);
    for (Vertex v = 0; v < 50; ++v) EXPECT_EQ(g.degree(v), d);
    EXPECT_EQ(mad_ceiling(g), d);  // d-regular => mad = d
  }
}

TEST(Gen, RandomRegularPinned) {
  // Pinned output: the CSR digest and the caller's next Rng draw (callers
  // such as proptest.h keep drawing from the same Rng), so any change to
  // the swap loop's draws, order or result shows up here.
  struct Pin {
    Vertex n;
    Vertex d;
    std::uint64_t seed;
    const char* digest;
    std::uint64_t next;
  };
  for (const Pin& pin : {
           Pin{64, 4, 1, "9a2efc02a8813dcccbc2dcafb01ae26d",
               0x2c6bceecb661f261ULL},
           Pin{1000, 3, 2, "fdc0f537ab2e8138aecee5c40b16028c",
               0xc82c25a0e1ba0c4fULL},
           Pin{4096, 5, 3, "08276eaad0b5a8e904c8d06f56273755",
               0x96d491079689deceULL},
           Pin{32768, 4, 7, "c8c1041f0be3fb6c2ae5f2d04a3002e1",
               0x8e28e10b94bcc93fULL},
           // Dense cases, where most proposed swaps are rejected because
           // an edge they would create already exists.
           Pin{20, 17, 11, "6cf920ce111db83f244847bc960e9259",
               0x54069a53c97ca4aeULL},
           Pin{200, 64, 12, "6c8d666bda2f893af74bff0096a546c5",
               0xc4a3b3bf4c6c195fULL},
           Pin{1000, 31, 13, "cba73c2cda88955c6515fd6b3d946988",
               0x2ae10cc6d7796704ULL},
       }) {
    Rng rng(pin.seed);
    const Graph g = random_regular(pin.n, pin.d, rng);
    EXPECT_EQ(hash_graph(g).hex(), pin.digest) << "n=" << pin.n;
    EXPECT_EQ(rng.next(), pin.next) << "n=" << pin.n;
  }
}

TEST(Gen, RandomTreeIsTree) {
  Rng rng(103);
  for (int t = 0; t < 10; ++t) {
    const Graph g = random_tree(30, rng);
    EXPECT_EQ(g.num_edges(), 29);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Gen, ForestUnionEdgeCount) {
  Rng rng(107);
  const Graph g = random_forest_union(40, 3, rng);
  EXPECT_LE(g.num_edges(), 3 * 39);
  EXPECT_GT(g.num_edges(), 39);  // should overlap little
}

TEST(Gen, GnmExactEdges) {
  Rng rng(109);
  const Graph g = gnm(25, 60, rng);
  EXPECT_EQ(g.num_edges(), 60);
}

TEST(Gen, NamedGraphInvariants) {
  EXPECT_EQ(petersen().num_edges(), 15);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(petersen().degree(v), 3);
  EXPECT_EQ(heawood().num_edges(), 21);
  for (Vertex v = 0; v < 14; ++v) EXPECT_EQ(heawood().degree(v), 3);
  EXPECT_EQ(mcgee().num_edges(), 36);
  for (Vertex v = 0; v < 24; ++v) EXPECT_EQ(mcgee().degree(v), 3);
  EXPECT_EQ(grotzsch().num_edges(), 20);
}

TEST(Gen, KleinGridDeterministic) {
  // Same parameters, same graph (determinism).
  EXPECT_EQ(klein_grid(5, 9).edges(), klein_grid(5, 9).edges());
}

// --- Web-scale families (gen/scale.h) -------------------------------------

TEST(GenScale, RmatEdgeCountsAndBounds) {
  Rng rng(51001);
  const Graph g = rmat(10, 8, 0.57, 0.19, 0.19, rng);
  EXPECT_EQ(g.num_vertices(), 1024);
  // Self-attempts drop and duplicates merge, so the distinct count is
  // below the attempt count but (at these parameters) not collapsed.
  EXPECT_LE(g.num_edges(), 8 * 1024);
  EXPECT_GE(g.num_edges(), 4 * 1024);
}

TEST(GenScale, RmatQuadrantSkew) {
  // With (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) the top-level quadrant
  // of an attempt is (low, low) with probability a and (high, high) with
  // probability d: the low-id half of the matrix must be dramatically
  // denser. Dedup compresses the dense quadrant hardest, so the test
  // uses generous margins around the attempt-level expectations.
  Rng rng(51007);
  const Vertex n = 4096;
  const Graph g = rmat(12, 8, 0.57, 0.19, 0.19, rng);
  std::int64_t low_low = 0;
  std::int64_t high_high = 0;
  for (const auto& [u, v] : g.edges()) {
    if (u < n / 2 && v < n / 2) ++low_low;
    if (u >= n / 2 && v >= n / 2) ++high_high;
  }
  const double total = static_cast<double>(g.num_edges());
  EXPECT_GT(low_low / total, 0.40);
  EXPECT_LT(high_high / total, 0.12);
  EXPECT_GT(low_low, 5 * high_high);
}

TEST(GenScale, RmatSeedDeterminism) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  const Graph ga = rmat(9, 6, 0.57, 0.19, 0.19, a);
  EXPECT_EQ(ga.edges(), rmat(9, 6, 0.57, 0.19, 0.19, b).edges());
  EXPECT_NE(ga.edges(), rmat(9, 6, 0.57, 0.19, 0.19, c).edges());
}

TEST(GenScale, PowerlawExactEdgeCountAndDeterminism) {
  Rng a(301);
  Rng b(301);
  const Graph ga = powerlaw(500, 1750, 2.5, a);
  EXPECT_EQ(ga.num_vertices(), 500);
  EXPECT_EQ(ga.num_edges(), 1750);  // exactly m, not approximately
  EXPECT_EQ(ga.edges(), powerlaw(500, 1750, 2.5, b).edges());
}

TEST(GenScale, PowerlawTailSlopeWithinTolerance) {
  // Chung–Lu weights target P[deg >= d] ~ d^(1 - alpha); a log-log
  // least-squares fit of the complementary CDF over one decade must
  // recover a slope near 1 - alpha = -1.5. The tolerance is loose — the
  // generator is exact-m conditioned and dedup bends the extreme tail —
  // but tight enough to reject uniform (slope that stays near 0 until a
  // cliff) and dense-core shapes.
  Rng rng(307);
  const Vertex n = 20000;
  const Graph g = powerlaw(n, 80000, 2.5, rng);
  std::vector<double> log_d;
  std::vector<double> log_ccdf;
  for (const Vertex d : {4, 8, 16, 32, 64}) {
    std::int64_t at_least = 0;
    for (Vertex v = 0; v < n; ++v)
      if (g.degree(v) >= d) ++at_least;
    ASSERT_GT(at_least, 0) << "degree " << d;
    log_d.push_back(std::log(static_cast<double>(d)));
    log_ccdf.push_back(
        std::log(static_cast<double>(at_least) / static_cast<double>(n)));
  }
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  const double k = static_cast<double>(log_d.size());
  for (std::size_t i = 0; i < log_d.size(); ++i) {
    sx += log_d[i];
    sy += log_ccdf[i];
    sxx += log_d[i] * log_d[i];
    sxy += log_d[i] * log_ccdf[i];
  }
  const double slope = (k * sxy - sx * sy) / (k * sxx - sx * sx);
  EXPECT_LT(slope, -0.9) << "tail too flat for alpha=2.5";
  EXPECT_GT(slope, -2.3) << "tail too steep for alpha=2.5";
}

TEST(GenScale, PrefAttachExactEdgeCountAndMinDegree) {
  Rng rng(311);
  const Vertex n = 600;
  const Vertex k = 5;
  const Graph g = pref_attach(n, k, rng);
  EXPECT_EQ(g.num_edges(),
            static_cast<std::int64_t>(k) * (k - 1) / 2 +
                static_cast<std::int64_t>(n - k) * k);
  // Every arriving vertex brings exactly k distinct edges; seed-clique
  // vertices start at degree k - 1.
  for (Vertex v = 0; v < n; ++v) EXPECT_GE(g.degree(v), k - 1);
  // Degree-proportional attachment concentrates on early vertices.
  EXPECT_GT(g.max_degree(), 4 * k);
  Rng b(311);
  EXPECT_EQ(g.edges(), pref_attach(n, k, b).edges());
}

TEST(GenScale, CampaignJsonlBitIdenticalAcrossJobs) {
  // The new scenarios through the campaign runner: the JSONL stream for
  // jobs=8 must be byte-identical to jobs=1 — same contract the existing
  // families are held to, now covering rmat/powerlaw/pref-attach.
  CampaignSpec spec;
  spec.scenarios = {"rmat:scale=7,edgefactor=4", "powerlaw:n=96,m=240",
                    "pref-attach:n=96,k=3"};
  spec.algorithms = {"greedy", "degeneracy"};
  spec.seeds = 2;

  const auto run = [&](Executor* executor) {
    CampaignOptions options;
    options.executor = executor;
    std::vector<std::string> lines;
    run_campaign(spec, options,
                 [&](const std::string& line) { lines.push_back(line); });
    return lines;
  };
  const std::vector<std::string> serial = run(nullptr);
  ThreadPoolExecutor pool(8, /*grain=*/1);
  const std::vector<std::string> parallel = run(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "line " << i;
}

}  // namespace
}  // namespace scol

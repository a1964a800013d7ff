// Palette work at Δ+1 scale: the index-space sparsify sampler against the
// copy–shuffle–sort sampler it replaced, the one-pass canonical() against
// the two-pass predicate, and pinned reports for the solvers whose list
// passes were cut to what a vertex can use (the L_H prefix and the
// root-ball lists of the Lemma 3.2 extension, the sparsified samples).
//
// The golden corpus cannot see these paths: its graphs have n <= 64 and
// max degree <= 5, so sparsify never samples and the L_H prefix rarely
// truncates. The pins below run on n = 4096 graphs with Δ+1 palettes
// (k ~ 200 against a sparsify target of 49).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "scol/api/registry.h"
#include "scol/api/scenario.h"
#include "scol/api/solve.h"
#include "scol/coloring/sparsify.h"
#include "scol/serve/hash.h"
#include "scol/util/executor.h"

namespace scol {
namespace {

// The sampler as it was before the index-space rewrite: copy each long
// list, run the partial Fisher–Yates over the copy, keep the first
// `target` values and sort them.
ListAssignment oracle_sparsify(const ListAssignment& lists, Vertex target,
                               std::uint64_t seed, std::uint64_t attempt) {
  ListAssignment out;
  std::vector<Color> scratch;
  for (Vertex v = 0; v < lists.size(); ++v) {
    const auto list = lists.of(v);
    if (static_cast<Vertex>(list.size()) <= target) {
      out.append(list);
      continue;
    }
    Rng r = Rng::stream(seed, (attempt << 32) |
                                  static_cast<std::uint64_t>(
                                      static_cast<std::uint32_t>(v)));
    scratch.assign(list.begin(), list.end());
    for (Vertex i = 0; i < target; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          static_cast<std::size_t>(r.below(scratch.size() -
                                           static_cast<std::size_t>(i)));
      std::swap(scratch[static_cast<std::size_t>(i)], scratch[j]);
    }
    scratch.resize(static_cast<std::size_t>(target));
    std::sort(scratch.begin(), scratch.end());
    out.append(scratch);
  }
  return out;
}

// Byte-equal samples, list boundaries included, for attempts 0..2.
void expect_sampler_matches_oracle(const ListAssignment& lists, Vertex target,
                                   std::uint64_t seed,
                                   const std::string& what) {
  for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
    const ListAssignment got = sparsify_palette(lists, target, seed, attempt);
    const ListAssignment want = oracle_sparsify(lists, target, seed, attempt);
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_TRUE(std::ranges::equal(got.flat(), want.flat()))
        << what << " attempt " << attempt;
    for (Vertex v = 0; v < got.size(); ++v)
      ASSERT_EQ(got.of(v).size(), want.of(v).size())
          << what << " attempt " << attempt << " v " << v;
    EXPECT_TRUE(got.canonical()) << what;
  }
}

TEST(PaletteSampler, MatchesOracleOnUniformDeltaPlusOneLists) {
  const Vertex target = sparsify_target(4096, 4.0);
  for (const Color k : {207, 240, 463})
    expect_sampler_matches_oracle(uniform_lists(512, k), target, 0x5eed + k,
                                  "uniform k=" + std::to_string(k));
}

TEST(PaletteSampler, MatchesOracleOnRandomLists) {
  const Vertex target = 49;
  Rng rng(2024);
  for (const Color k : {target + 1, 2 * target, 5000}) {
    const Vertex n = k == 5000 ? 48 : 400;
    const ListAssignment lists = random_lists(n, k, k + 3 * target, rng);
    expect_sampler_matches_oracle(lists, target, rng.next(),
                                  "random k=" + std::to_string(k));
  }
}

TEST(PaletteSampler, MatchesOracleOnMixedLengthsAroundTheTarget) {
  // Lengths target-2 .. target+130 interleaved, so one pass mixes verbatim
  // copies with samples, and the reused position array and bitmask shrink
  // and grow between neighbouring vertices.
  const Vertex target = 17;
  Rng rng(99);
  std::vector<std::vector<Color>> ls;
  std::vector<Color> palette(400);
  for (Color c = 0; c < 400; ++c) palette[static_cast<std::size_t>(c)] = c;
  for (int v = 0; v < 300; ++v) {
    const std::size_t len =
        static_cast<std::size_t>(target - 2) + rng.below(133);
    rng.shuffle(palette);
    std::vector<Color> list(palette.begin(),
                            palette.begin() + static_cast<std::ptrdiff_t>(len));
    std::sort(list.begin(), list.end());
    ls.push_back(std::move(list));
  }
  ls.push_back({});
  ls.push_back({7});
  expect_sampler_matches_oracle(ListAssignment::from_lists(ls), target, 4242,
                                "mixed");
}

TEST(PaletteSampler, RejectsAnUnsortedLongList) {
  // Positions come back in increasing order, so a descending list yields a
  // descending sample; the sampler refuses it instead of emitting it.
  std::vector<Color> desc(40);
  for (Color c = 0; c < 40; ++c) desc[static_cast<std::size_t>(c)] = 39 - c;
  const ListAssignment lists = ListAssignment::from_lists({desc});
  EXPECT_FALSE(lists.canonical());
  EXPECT_THROW(sparsify_palette(lists, 5, 1, 0), PreconditionError);
}

TEST(PaletteCanonical, OnePassMatchesSortedAndUnique) {
  const auto two_pass = [](const ListAssignment& lists) {
    for (Vertex v = 0; v < lists.size(); ++v) {
      const auto l = lists.of(v);
      if (!std::is_sorted(l.begin(), l.end())) return false;
      if (std::adjacent_find(l.begin(), l.end()) != l.end()) return false;
    }
    return true;
  };
  Rng rng(5);
  for (int t = 0; t < 400; ++t) {
    std::vector<std::vector<Color>> ls;
    const int n = 1 + static_cast<int>(rng.below(6));
    for (int v = 0; v < n; ++v) {
      std::vector<Color> l;
      const int len = static_cast<int>(rng.below(6));
      Color c = static_cast<Color>(rng.below(4));
      for (int i = 0; i < len; ++i) {
        l.push_back(c);
        // Mostly increasing; sometimes a repeat or a step down.
        c += static_cast<Color>(rng.below(4)) - (rng.chance(0.1) ? 3 : 0);
        if (c < 0) c = 0;
      }
      ls.push_back(std::move(l));
    }
    const ListAssignment lists = ListAssignment::from_lists(ls);
    EXPECT_EQ(lists.canonical(), two_pass(lists)) << "trial " << t;
  }
  EXPECT_TRUE(ListAssignment{}.canonical());
  EXPECT_FALSE(ListAssignment::from_lists({{1, 2}, {3, 3}}).canonical());
  EXPECT_FALSE(ListAssignment::from_lists({{2, 1}}).canonical());
  EXPECT_TRUE(ListAssignment::from_lists({{}, {0}, {0, 5, 9}}).canonical());
}

// uniform_lists(n, k) stores one shared [0, k) array; from_lists of the
// same n lists is the explicit CSR form it replaced. Every query must
// answer alike on the two.
TEST(PaletteUniform, ImplicitListsMatchExplicitOnes) {
  const std::pair<Vertex, Color> shapes[] = {
      {0, 1}, {1, 1}, {7, 3}, {300, 5}, {64, 207}};
  Rng rng(31);
  for (const auto& [n, k] : shapes) {
    const std::string what =
        "n=" + std::to_string(n) + " k=" + std::to_string(k);
    std::vector<Color> base(static_cast<std::size_t>(k));
    std::iota(base.begin(), base.end(), 0);
    const ListAssignment implicit = uniform_lists(n, k);
    const ListAssignment expl = ListAssignment::from_lists(
        std::vector<std::vector<Color>>(static_cast<std::size_t>(n), base));
    EXPECT_TRUE(implicit.uniform()) << what;
    EXPECT_FALSE(expl.uniform()) << what;
    ASSERT_EQ(implicit.size(), expl.size()) << what;
    EXPECT_EQ(implicit.empty(), expl.empty()) << what;
    for (Vertex v = 0; v < n; ++v)
      ASSERT_TRUE(std::ranges::equal(implicit.of(v), expl.of(v)))
          << what << " v " << v;
    EXPECT_EQ(implicit.min_list_size(), expl.min_list_size()) << what;
    EXPECT_EQ(implicit.canonical(), expl.canonical()) << what;
    EXPECT_EQ(implicit.palette(), expl.palette()) << what;
    EXPECT_EQ(implicit.flat().size(), expl.flat().size()) << what;
    EXPECT_EQ(implicit.flat().size(),
              static_cast<std::size_t>(n) * static_cast<std::size_t>(k))
        << what;
    EXPECT_TRUE(std::ranges::equal(implicit.flat(), expl.flat())) << what;

    // A sub-assignment (reversed, every other vertex) stays uniform.
    std::vector<Vertex> some;
    for (Vertex v = n - 1; v >= 0; v -= 2) some.push_back(v);
    const ListAssignment sub = implicit.select(some);
    const ListAssignment sub_expl = expl.select(some);
    EXPECT_TRUE(sub.uniform()) << what;
    ASSERT_EQ(sub.size(), sub_expl.size()) << what;
    EXPECT_TRUE(std::ranges::equal(sub.flat(), sub_expl.flat())) << what;

    // The registry's default colour bound reads the distinct list colours.
    const AlgorithmInfo& info = AlgorithmRegistry::instance().at("randomized");
    const Graph g = Graph::from_edges(n, {});
    EXPECT_EQ(info.color_bound(make_request("randomized", g, implicit)),
              info.color_bound(make_request("randomized", g, expl)))
        << what;

    // respects_lists: valid partial colourings, then one colour off the
    // lists (above, negative, far above), then a size mismatch.
    Coloring c(static_cast<std::size_t>(n));
    for (Color& x : c) {
      x = static_cast<Color>(rng.below(static_cast<std::uint64_t>(k)));
      if (rng.chance(0.2)) x = kUncolored;
    }
    EXPECT_TRUE(respects_lists(c, implicit)) << what;
    EXPECT_TRUE(respects_lists(c, expl)) << what;
    if (n > 0) {
      for (const Color bad : {k, Color{-2}, Color{1} << 20}) {
        Coloring off = c;
        off[static_cast<std::size_t>(n / 2)] = bad;
        EXPECT_FALSE(respects_lists(off, implicit)) << what << " " << bad;
        EXPECT_FALSE(respects_lists(off, expl)) << what << " " << bad;
      }
    }
    c.push_back(0);
    EXPECT_FALSE(respects_lists(c, implicit)) << what;
    EXPECT_FALSE(respects_lists(c, expl)) << what;

    // The shared list is complete: no list can be appended to it.
    ListAssignment grown = implicit;
    EXPECT_THROW(grown.append({0}), PreconditionError) << what;
  }
}

// Reports computed before the palette passes were cut: the coloring
// digest, the charged rounds and the arena footprint must not move, under
// the serial executor and a four-thread pool alike.
TEST(PalettePinned, DeltaPlusOneReportsAreUnchanged) {
  struct Pin {
    const char* spec;
    const char* algorithm;
    Vertex k;  // -1 = auto-k (max degree + 1)
    const char* digest;
    std::int64_t rounds;
    std::int64_t arena_bytes;
  };
  const Pin pins[] = {
      {"planar:n=4096", "planar6", -1, "cbbad0efafd3ec4b6a16c801c56a3e2d",
       405651, 3543088},
      {"planar:n=4096", "dplus1-sparsified", -1,
       "df2ae43a06f31389ddff1df3d24f9a36", 4, 0},
      {"pref-attach:n=4096", "sparse", 8, "5c802344bfc1e25ca1a5514482fba24a",
       505812, 282672},
      {"pref-attach:n=4096", "deglist-sparsified", -1,
       "9c1ae03a0c67957c7bb7dc03c773cd69", 0, 0},
      // The propose pick, pinned with the two O(|L|) scans FreeListPick
      // replaced (7 iterations on the regular graph).
      {"planar:n=4096", "randomized", -1, "8631f0770954a332a371be8feb2ddabb",
       4, 0},
      {"regular:n=4096,d=4", "randomized", -1,
       "c865b1f379e697d62ade5f7b298bb64b", 14, 0},
  };
  ThreadPoolExecutor pool(4);
  for (const Pin& pin : pins) {
    Rng rng(1);
    const Graph g = build_scenario(pin.spec, rng);
    const AlgorithmInfo& info = AlgorithmRegistry::instance().at(pin.algorithm);
    ColoringRequest req = make_request(pin.algorithm, g);
    req.k = effective_k(info, pin.k, g.max_degree(), req.params);
    const ListAssignment lists =
        uniform_lists(g.num_vertices(), static_cast<Color>(req.k));
    req.lists = &lists;
    for (const Executor* executor :
         {static_cast<const Executor*>(nullptr),
          static_cast<const Executor*>(&pool)}) {
      const std::string what = std::string(pin.algorithm) + " on " +
                               pin.spec +
                               (executor != nullptr ? " (pool)" : " (serial)");
      RunContext ctx;
      ctx.executor = executor;
      ctx.seed = 1;
      ctx.validate = true;
      const ColoringReport r = solve(req, ctx);
      ASSERT_EQ(r.status, SolveStatus::kColored) << what;
      const Coloring& c = *r.coloring;
      EXPECT_EQ(Hasher().update(c.data(), c.size() * sizeof(Color)).digest().hex(),
                pin.digest)
          << what;
      EXPECT_EQ(r.rounds, pin.rounds) << what;
      EXPECT_EQ(r.metrics.get_int("arena_bytes", -1), pin.arena_bytes) << what;
      // The sparsified cells really sample: k ~ 200 against target 49.
      if (r.metrics.has("sparsify_target")) {
        EXPECT_LT(r.metrics.get_int("sparsify_sampled_colors", 0),
                  r.metrics.get_int("sparsify_full_colors", 0))
            << what;
        EXPECT_EQ(r.metrics.get_int("sparsify_fallback", -1), 0) << what;
      }
    }
  }
}

}  // namespace
}  // namespace scol

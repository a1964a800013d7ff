// Adversarial corpus for scenario specs and --param strings (api/params,
// api/scenario, api/solve).
//
// Seeded mutations of small valid specs and algorithm params — values
// past their destination type, negative values, lattice products past
// 2^31 - 1, int64 overflow, reals given for integers, unknown keys — must
// each end in a graph or report, or in a typed PreconditionError that
// names the mutated key. None may crash, end in std::bad_alloc, or carry
// REQUIRE-expression text.
//
// Every mutation that stays in range is small: a valid `rmat:scale=30`
// would build 2^30 vertices, so "huge" means past the key's type (or, for
// 64-bit keys, past int64), and `file:threads=` is only ever mutated past
// its bound, so no run starts more than one reader thread.
//
// The default sweep is sized for the tier-1 inner loop; CMake registers a
// second `test_scenario_fuzz_sweep` instance with SCOL_FUZZ_ITERS=1200
// under the `slow` label (CI runs it under ASan+UBSan, which also catches
// a lattice's rows * cols overflowing 32 bits).
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scol/api/oneshot.h"
#include "scol/api/scenario.h"
#include "scol/util/rng.h"

namespace scol {
namespace {

int fuzz_iters() {
  const char* env = std::getenv("SCOL_FUZZ_ITERS");
  if (env == nullptr) return 48;
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 48;
}

// One "name:key=value,..." spec or one algorithm's --param list, kept as
// (key, value) pairs so a mutation can rewrite one of them.
using Pairs = std::vector<std::pair<std::string, std::string>>;

// Keys whose range reaches past 2^32 (a huge value there is in range, and
// so not small): only int64 overflow is past them. Every other numeric
// key is 32-bit, or an edge count m <= n(n-1)/2, which a huge value
// exceeds on every seed below. A value with a '.' is a real.
bool is_int64_key(const std::string& key) {
  for (const char* k : {"edgefactor", "node_budget", "sparsify_node_budget",
                        "sparsify_attempts"})
    if (key == k) return true;
  return false;
}

template <std::size_t N>
std::string pick(const char* const (&options)[N], Rng& rng) {
  return options[rng.below(N)];
}

// Rewrites one pair of `pairs` in place and returns the text the error
// must name: "'key'" for a bad value or key, the product for a lattice
// overflow.
std::string mutate(Pairs& pairs, Rng& rng) {
  static const char* const kHuge32[] = {"2147483648", "4294967299",
                                        "99999999999", "1000000000000"};
  static const char* const kNegative[] = {"-1", "-7", "-2147483649"};
  static const char* const kInt64Overflow[] = {
      "99999999999999999999", "-99999999999999999999",
      "9223372036854775808"};
  static const char* const kReal[] = {"2.5", "1e3", "-0.5"};

  // A lattice product past 2^31 - 1, from two factors each in range.
  std::size_t rows = pairs.size(), cols = pairs.size();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].first == "rows" || pairs[i].first == "k") rows = i;
    if (pairs[i].first == "cols" || pairs[i].first == "l") cols = i;
  }
  const bool lattice = rows < pairs.size() && cols < pairs.size();
  const std::uint64_t kind = rng.below(lattice ? 6 : 5);
  if (kind == 5) {
    static const char* const kFactors[][2] = {
        {"65536", "65537"}, {"100000", "100000"}, {"2147483647", "5"}};
    const auto& f = kFactors[rng.below(3)];
    pairs[rows].second = f[0];
    pairs[cols].second = f[1];
    return pairs[rows].first + " * " + pairs[cols].first;
  }
  if (kind == 4 || pairs.empty()) {
    // An unknown key: a typo of a real one, or a stranger.
    std::string key = "bogus";
    if (!pairs.empty() && rng.chance(0.5))
      key = pairs[rng.below(pairs.size())].first + "x";
    pairs.emplace_back(key, "1");
    return "'" + key + "'";
  }
  auto& [key, value] = pairs[rng.below(pairs.size())];
  const bool real = value.find('.') != std::string::npos;
  if (key == "threads") {
    static const char* const kThreads[] = {"1025", "100000", "-1",
                                           "4294967299"};
    value = pick(kThreads, rng);
  } else if (real) {
    // Reals are not integers to narrow; only their lexing can fail.
    value = rng.chance(0.5) ? pick(kInt64Overflow, rng) : "1e999";
  } else if (kind == 0) {
    value = is_int64_key(key) ? pick(kInt64Overflow, rng)
                              : pick(kHuge32, rng);
  } else if (kind == 1) {
    value = pick(kNegative, rng);
  } else if (kind == 2) {
    value = pick(kInt64Overflow, rng);
  } else {
    value = pick(kReal, rng);
  }
  return "'" + key + "'";
}

std::string join(const std::string& name, const Pairs& pairs) {
  std::string spec = name;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    spec += (i == 0 ? ":" : ",") + pairs[i].first + "=" + pairs[i].second;
  return spec;
}

// The outcome contract: `run` returns normally, or throws a
// PreconditionError whose text names `must_name` and carries no
// REQUIRE-expression text.
template <typename Run>
void expect_answer_or_typed_error(const std::string& what,
                                  const std::string& must_name, Run&& run) {
  try {
    run();
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(must_name), std::string::npos)
        << what << ": error does not name " << must_name << ": " << msg;
    EXPECT_EQ(msg.find("REQUIRE"), std::string::npos) << what << ": " << msg;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << what << ": std::bad_alloc";
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped " << e.what();
  }
}

struct SpecSeed {
  std::string name;
  Pairs pairs;
};

std::vector<SpecSeed> spec_seeds() {
  return {
      {"grid", {{"rows", "6"}, {"cols", "7"}}},
      {"cylinder", {{"rows", "5"}, {"cols", "4"}}},
      {"torus", {{"rows", "5"}, {"cols", "6"}}},
      {"torus-tri", {{"rows", "6"}, {"cols", "6"}}},
      {"klein", {{"k", "5"}, {"l", "5"}}},
      {"hex", {{"rows", "4"}, {"cols", "4"}}},
      {"planar", {{"n", "40"}}},
      {"grid-diag", {{"rows", "5"}, {"cols", "5"}}},
      {"subhex", {{"rows", "6"}, {"cols", "6"}, {"p", "0.2"}}},
      {"gnm", {{"n", "40"}, {"m", "60"}}},
      {"tree", {{"n", "30"}}},
      {"forest", {{"n", "30"}, {"a", "2"}}},
      {"regular", {{"n", "30"}, {"d", "4"}}},
      {"gallai", {{"blocks", "6"}, {"max_clique", "4"}}},
      {"non-gallai", {{"n", "20"}}},
      {"cycle-power", {{"n", "30"}, {"k", "3"}}},
      {"path-power", {{"n", "30"}, {"k", "2"}}},
      {"complete", {{"n", "6"}}},
      {"bipartite", {{"a", "3"}, {"b", "4"}}},
      {"cycle", {{"n", "12"}}},
      {"path", {{"n", "12"}}},
      {"star", {{"leaves", "8"}}},
      {"rmat", {{"scale", "6"}, {"edgefactor", "4"}, {"a", "0.57"}}},
      {"powerlaw", {{"n", "200"}, {"m", "600"}, {"alpha", "2.5"}}},
      {"pref-attach", {{"n", "200"}, {"k", "3"}}},
      {"file",
       {{"path", std::string(SCOL_REPO_DIR) + "/examples/graphs/grotzsch.col"},
        {"threads", "1"}}},
  };
}

TEST(ScenarioFuzz, SeedSpecsBuild) {
  for (const auto& seed : spec_seeds()) {
    Rng rng(1);
    EXPECT_GT(build_scenario(join(seed.name, seed.pairs), rng).num_vertices(),
              0)
        << seed.name;
  }
}

TEST(ScenarioFuzz, SpecIntegersLexLikeStrtoll) {
  // A leading '+' is a sign, as strtoll (the lexer specs had before)
  // reads it; a real is never silently truncated to an integer.
  Rng rng(1);
  EXPECT_EQ(build_scenario("cycle:n=+5", rng).num_vertices(), 5);
  expect_answer_or_typed_error("cycle:n=5.0", "'n' = 5.0", [&] {
    build_scenario("cycle:n=5.0", rng);
    ADD_FAILURE() << "a real n must not build";
  });
}

TEST(ScenarioFuzz, MutatedSpecsEndInAGraphOrANamedError) {
  const std::vector<SpecSeed> seeds = spec_seeds();
  Rng rng(0x5CE7A);
  for (int it = 0; it < fuzz_iters() * 4; ++it) {
    SpecSeed s = seeds[rng.below(seeds.size())];
    // The file path is not this suite's input (test_io_fuzz covers it):
    // only the keys after it mutate.
    const std::ptrdiff_t fixed = s.name == "file" ? 1 : 0;
    Pairs tail(s.pairs.begin() + fixed, s.pairs.end());
    const std::string must_name = mutate(tail, rng);
    s.pairs.resize(static_cast<std::size_t>(fixed));
    s.pairs.insert(s.pairs.end(), tail.begin(), tail.end());
    const std::string spec = join(s.name, s.pairs);
    expect_answer_or_typed_error(spec, must_name, [&] {
      Rng build_rng(static_cast<std::uint64_t>(it));
      build_scenario(spec, build_rng);
    });
  }
}

struct ParamSeed {
  std::string algorithm;
  std::string scenario;
  Vertex k;
  Pairs params;
};

std::vector<ParamSeed> param_seeds() {
  const std::string grid = "grid:rows=4,cols=4";
  return {
      {"sparse", grid, 4, {{"d", "4"}, {"radius", "3"}, {"max_peels", "100"},
                           {"ball_constant", "65.82"}}},
      {"nice", grid, -1, {{"radius", "2"}, {"max_peels", "100"}}},
      {"arboricity", grid, 4, {{"arboricity", "2"}}},
      {"genus", grid, -1, {{"genus", "1"}}},
      {"gps", grid, -1, {{"threshold", "4"}}},
      {"barenboim-elkin", grid, -1, {{"arboricity", "2"}, {"eps", "1.0"}}},
      {"list-sparsified", "grid:rows=3,cols=3", 3,
       {{"sparsify_attempts", "2"}, {"sparsify_node_budget", "1000"},
        {"node_budget", "100000"}, {"sparsify_c", "4.0"}}},
      {"exact", "petersen", 3, {{"node_budget", "100000"}}},
  };
}

// The one-shot path (scol-cli's default mode, every serve request): lex
// each key=value like --param, then admit and solve.
Json one_shot(const ParamSeed& seed, const Pairs& params) {
  OneShotSpec spec;
  spec.algorithm = seed.algorithm;
  spec.scenario = seed.scenario;
  spec.k = seed.k;
  spec.include_timing = false;
  for (const auto& [key, value] : params)
    parse_param(spec.params, key + "=" + value);
  return one_shot_report(spec);
}

TEST(ScenarioFuzz, SeedParamsColor) {
  for (const auto& seed : param_seeds()) {
    const Json report = one_shot(seed, seed.params);
    EXPECT_EQ(report.get("status")->as_str(), "colored")
        << seed.algorithm << ": " << report.dump();
  }
}

TEST(ScenarioFuzz, MutatedParamsEndInAReportOrANamedError) {
  const std::vector<ParamSeed> seeds = param_seeds();
  Rng rng(0x9A7A5);
  for (int it = 0; it < fuzz_iters(); ++it) {
    const ParamSeed& seed = seeds[rng.below(seeds.size())];
    Pairs params = seed.params;
    const std::string must_name = mutate(params, rng);
    const std::string what = join(seed.algorithm, params);
    expect_answer_or_typed_error(what, must_name, [&] {
      const std::string report = one_shot(seed, params).dump();
      EXPECT_EQ(report.find("REQUIRE"), std::string::npos)
          << what << ": " << report;
    });
  }
}

}  // namespace
}  // namespace scol

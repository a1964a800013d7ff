// Golden-report regression corpus.
//
// Each bundled instance under examples/graphs/ is swept through the WHOLE
// algorithm registry by the campaign runner (uniform auto-k lists, probe
// filter on, timing zeroed) and the resulting JSONL stream is pinned,
// byte for byte, in tests/golden/<name>.jsonl. The stream is a pure
// function of the spec (the campaign determinism contract), so ANY
// behavior drift — a changed round count, a different coloring, a
// flipped skip verdict, a serialization change — fails this test loudly
// and forces a deliberate regeneration.
//
// Regenerate (after reviewing the diff is intended):
//   SCOL_REGEN_GOLDEN=1 ./test_golden_corpus
// then commit the updated files under tests/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scol/api/campaign.h"
#include "scol/api/registry.h"
#include "scol/util/thread_pool.h"

namespace scol {
namespace {

#ifndef SCOL_REPO_DIR
#error "SCOL_REPO_DIR must point at the source tree"
#endif

struct GoldenCase {
  const char* name;  // golden file stem
  const char* file;  // bundled instance, repo-relative
};

const GoldenCase kCases[] = {
    {"grotzsch", "examples/graphs/grotzsch.col"},
    {"grid8x8", "examples/graphs/grid8x8.graph"},
    {"petersen", "examples/graphs/petersen.mtx"},
    {"heawood", "examples/graphs/heawood.edges"},
};

std::string golden_path(const GoldenCase& c) {
  return std::string(SCOL_REPO_DIR) + "/tests/golden/" + c.name + ".jsonl";
}

// The pinned sweep: one file scenario x the whole registry x 2 seeds.
// File scenarios ignore their seed, so the two seed rows also pin that
// instance caching keeps them identical.
std::string run_sweep(const GoldenCase& c, const Executor* executor,
                      int exec_shards = 1) {
  CampaignSpec spec;
  spec.scenarios = {std::string("file:path=") + SCOL_REPO_DIR + "/" + c.file};
  spec.algorithms = AlgorithmRegistry::instance().names();
  spec.seeds = 2;
  spec.exec_shards = exec_shards;
  // Exchange telemetry varies with the shard count by design; what must
  // NOT vary is everything else, so the sharded sweeps compare with
  // telemetry suppressed (the CI campaign-smoke cross-p `cmp` leg runs
  // the same way).
  spec.exchange_metrics = false;
  CampaignOptions options;
  options.executor = executor;
  std::ostringstream stream;
  run_campaign(spec, options, [&](const std::string& line) {
    // The scenario spec echoes the absolute repo path; strip it so golden
    // files are machine-independent.
    std::string cleaned = line;
    const std::string abs = std::string(SCOL_REPO_DIR) + "/";
    for (std::size_t pos = cleaned.find(abs); pos != std::string::npos;
         pos = cleaned.find(abs, pos))
      cleaned.erase(pos, abs.size());
    stream << cleaned << "\n";
  });
  return stream.str();
}

TEST(GoldenCorpus, PinnedSweepsAreByteIdentical) {
  const bool regen = std::getenv("SCOL_REGEN_GOLDEN") != nullptr;
  for (const GoldenCase& c : kCases) {
    const std::string actual = run_sweep(c, nullptr);
    ASSERT_FALSE(actual.empty()) << c.name;
    if (regen) {
      std::ofstream out(golden_path(c), std::ios::binary);
      ASSERT_TRUE(out.good()) << golden_path(c);
      out << actual;
      continue;
    }
    std::ifstream in(golden_path(c), std::ios::binary);
    ASSERT_TRUE(in.good())
        << golden_path(c)
        << " missing; regenerate with SCOL_REGEN_GOLDEN=1 ./test_golden_corpus";
    std::stringstream expected;
    expected << in.rdbuf();
    // Line-by-line first for a readable failure, then the full byte check.
    std::istringstream actual_lines(actual), expected_lines(expected.str());
    std::string al, el;
    std::size_t lineno = 0;
    while (std::getline(expected_lines, el)) {
      ++lineno;
      ASSERT_TRUE(std::getline(actual_lines, al))
          << c.name << ": stream ended early at line " << lineno;
      EXPECT_EQ(al, el) << c.name << " line " << lineno
                        << " drifted from the golden corpus";
    }
    EXPECT_FALSE(std::getline(actual_lines, al))
        << c.name << ": stream has extra lines beyond the golden corpus";
    EXPECT_EQ(actual, expected.str()) << c.name;
  }
}

TEST(GoldenCorpus, ShardedExecutorReproducesTheCorpus) {
  // The tentpole acceptance criterion: every job solved under a
  // ShardedExecutor — LOCAL rounds run shard by shard over p CSR ranges —
  // reproduces the pinned stream byte for byte for p in {1, 2, 4, 8}. The serial engine is the oracle; the partition
  // and the shard-by-shard execution must be invisible to the reports.
  if (std::getenv("SCOL_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  for (const GoldenCase& c : kCases) {
    std::ifstream in(golden_path(c), std::ios::binary);
    ASSERT_TRUE(in.good()) << golden_path(c);
    std::stringstream expected;
    expected << in.rdbuf();
    for (int p : {1, 2, 4, 8}) {
      EXPECT_EQ(run_sweep(c, nullptr, p), expected.str())
          << c.name << " under " << p << " shards";
    }
  }
}

TEST(GoldenCorpus, PoolExecutorReproducesTheCorpus) {
  // The same sweep under a thread-pool job executor must reproduce the
  // pinned stream byte for byte (the determinism contract, enforced
  // against the corpus rather than against a sibling run).
  if (std::getenv("SCOL_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  ThreadPoolExecutor pool(4);
  for (const GoldenCase& c : kCases) {
    std::ifstream in(golden_path(c), std::ios::binary);
    ASSERT_TRUE(in.good()) << golden_path(c);
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(run_sweep(c, &pool), expected.str()) << c.name;
  }
}

}  // namespace
}  // namespace scol

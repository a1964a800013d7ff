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

// `line` without the exchange pricing a sharded campaign adds: the
// top-level "shards" field and the four exchange metrics. Sets `*priced`
// when all five were present. The keys are removed textually, so every
// other byte of the line is left exactly as the campaign wrote it. The
// metrics object precedes the line's "shards" field, so the first
// `,"shards":` found is the metric and the second the line's.
std::string strip_exchange(std::string line, bool* priced) {
  int found = 0;
  for (const char* key : {"shards", "exchange_messages", "boundary_vertices",
                          "cut_edges", "shards"}) {
    const std::string field = std::string(",\"") + key + "\":";
    const std::size_t pos = line.find(field);
    if (pos == std::string::npos) continue;
    const std::size_t end = line.find_first_of(",}", pos + field.size());
    line.erase(pos, end - pos);
    ++found;
  }
  *priced = found == 5;
  return line;
}

TEST(GoldenCorpus, ShardedPricingLeavesTheCorpusIntact) {
  // Exchange pricing only appends: with the line's "shards" field and the
  // four exchange metrics removed, a campaign priced on p shards is the
  // pinned stream byte for byte for p in {1, 2, 4, 8}. For p > 1 every
  // line that solved must actually have carried the pricing.
  if (std::getenv("SCOL_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  for (const GoldenCase& c : kCases) {
    std::ifstream in(golden_path(c), std::ios::binary);
    ASSERT_TRUE(in.good()) << golden_path(c);
    std::stringstream expected;
    expected << in.rdbuf();
    for (int p : {1, 2, 4, 8}) {
      std::istringstream lines(run_sweep(c, nullptr, p));
      std::string stripped, line;
      while (std::getline(lines, line)) {
        bool priced = false;
        stripped += strip_exchange(line, &priced) + "\n";
        const bool solved =
            line.find("\"status\":\"skipped\"") == std::string::npos;
        if (p > 1 && solved) {
          EXPECT_TRUE(priced) << c.name << " p=" << p << ": " << line;
        }
      }
      EXPECT_EQ(stripped, expected.str())
          << c.name << " priced on " << p << " shards";
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

// Adversarial / fuzz corpus for the file readers (src/scol/io/).
//
// Seeded mutations of valid files — truncation, byte flips, huge
// tokens, CRLF mixes, spliced and split lines — must either parse or
// throw a position-prefixed PreconditionError ("name:line:col: ...");
// they must never crash or hang, and for the formats the mmap parallel
// reader covers (edge list, METIS) the streaming and parallel readers
// must produce the SAME outcome: an identical graph and ReadStats, or a
// byte-identical error message.
//
// The default sweep is sized for the tier-1 inner loop; CMake registers
// a second `test_io_fuzz_sweep` instance with SCOL_FUZZ_ITERS=1200
// under the `slow` label for the extended run (CI executes it under
// ASan+UBSan, where "never crash" has teeth).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scol/io/io.h"
#include "scol/util/rng.h"

namespace scol {
namespace {

int fuzz_iters() {
  const char* env = std::getenv("SCOL_FUZZ_ITERS");
  if (env == nullptr) return 48;
  const int iters = std::atoi(env);
  return iters > 0 ? iters : 48;
}

// --- Seed corpus: one small valid file per format ------------------------

std::string seed_edge_list() {
  std::string text = "# fuzz seed\n";
  for (int i = 0; i < 40; ++i)
    text += std::to_string(i) + " " + std::to_string((i * 7 + 1) % 41) +
            (i % 5 == 0 ? " 0.5\n" : "\n");
  return text;
}

std::string seed_metis() {
  // 12 vertices on a cycle: every edge listed from both endpoints.
  std::string text = "% fuzz seed\n12 12\n";
  for (int v = 1; v <= 12; ++v) {
    const int prev = v == 1 ? 12 : v - 1;
    const int next = v == 12 ? 1 : v + 1;
    text += std::to_string(prev) + " " + std::to_string(next) + "\n";
  }
  return text;
}

std::string seed_dimacs() {
  std::string text = "c fuzz seed\np edge 10 9\n";
  for (int i = 1; i < 10; ++i)
    text += "e " + std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  return text;
}

std::string seed_mtx() {
  std::string text = "%%MatrixMarket matrix coordinate pattern symmetric\n"
                     "10 10 9\n";
  for (int i = 2; i <= 10; ++i)
    text += std::to_string(i) + " " + std::to_string(i - 1) + "\n";
  return text;
}

// --- Seeded mutations -----------------------------------------------------

std::size_t pick_pos(const std::string& text, Rng& rng) {
  return static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(text.size()) + 1));
}

void mutate_once(std::string& text, Rng& rng) {
  if (text.empty()) text = "\n";
  switch (rng.below(7)) {
    case 0:  // truncation
      text.resize(pick_pos(text, rng));
      break;
    case 1: {  // byte flips, including non-ASCII garbage
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int i = 0; i < flips && !text.empty(); ++i)
        text[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(text.size())))] =
            static_cast<char>(rng.below(256));
      break;
    }
    case 2: {  // huge token (overlong integers, giant junk words)
      const std::size_t len = 64 + rng.below(2048);
      const char fill = rng.chance(0.5) ? '9' : 'z';
      text.insert(pick_pos(text, rng), std::string(len, fill));
      break;
    }
    case 3: {  // CRLF mixes
      std::string out;
      out.reserve(text.size() + 16);
      for (const char c : text) {
        if (c == '\n' && rng.chance(0.3)) out += '\r';
        out += c;
      }
      text = std::move(out);
      break;
    }
    case 4:  // extra newline: shifts every later chunk boundary
      text.insert(pick_pos(text, rng), 1, '\n');
      break;
    case 5: {  // delete a span
      const std::size_t from = pick_pos(text, rng);
      const std::size_t len = rng.below(32) + 1;
      text.erase(from, len);
      break;
    }
    default: {  // splice: duplicate a random span somewhere else
      const std::size_t from = pick_pos(text, rng);
      const std::size_t len =
          std::min<std::size_t>(text.size() - from, rng.below(64) + 1);
      text.insert(pick_pos(text, rng), text.substr(from, len));
      break;
    }
  }
}

// --- Outcome comparison ---------------------------------------------------

struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<Edge> edges;
  Vertex n = 0;
  ReadStats stats;
};

Outcome read_outcome(const std::string& path, GraphFormat format,
                     int threads) {
  Outcome out;
  try {
    ReadOptions options;
    options.threads = threads;
    const ReadResult r = read_graph_file(path, format, options);
    out.ok = true;
    out.n = r.graph.num_vertices();
    out.edges = r.graph.edges();
    out.stats = r.stats;
  } catch (const PreconditionError& e) {
    out.error = e.what();
  }
  // Any other exception type escapes and fails the test: the reader
  // contract is PreconditionError or success, nothing else.
  return out;
}

// "path:line:col: " with 1-based integers — the docs/FORMATS.md prefix
// contract, which must survive arbitrary input mutations.
void expect_position_prefix(const std::string& error,
                            const std::string& path) {
  ASSERT_EQ(error.rfind(path + ":", 0), 0u) << error;
  std::size_t at = path.size() + 1;
  for (int field = 0; field < 2; ++field) {
    std::size_t digits = 0;
    while (at < error.size() && error[at] >= '0' && error[at] <= '9') {
      ++at;
      ++digits;
    }
    ASSERT_GT(digits, 0u) << error;
    if (field == 0) {
      ASSERT_LT(at, error.size()) << error;
      ASSERT_EQ(error[at], ':') << error;
      ++at;
    }
  }
  ASSERT_EQ(error.compare(at, 2, ": "), 0) << error;
}

void expect_same_outcome(const Outcome& a, const Outcome& b,
                         const std::string& label) {
  ASSERT_EQ(a.ok, b.ok) << label << "\nstreaming: " << a.error
                        << "\nparallel: " << b.error;
  if (a.ok) {
    EXPECT_EQ(a.n, b.n) << label;
    EXPECT_EQ(a.edges, b.edges) << label;
    EXPECT_EQ(a.stats.edge_records, b.stats.edge_records) << label;
    EXPECT_EQ(a.stats.duplicate_edges, b.stats.duplicate_edges) << label;
    EXPECT_EQ(a.stats.self_loops, b.stats.self_loops) << label;
    EXPECT_EQ(a.stats.asymmetric_edges, b.stats.asymmetric_edges) << label;
    EXPECT_EQ(a.stats.comment_lines, b.stats.comment_lines) << label;
    EXPECT_EQ(a.stats.zero_indexed, b.stats.zero_indexed) << label;
  } else {
    EXPECT_EQ(a.error, b.error) << label;
  }
}

void run_fuzz(const std::string& tag, const std::string& seed_text,
              GraphFormat format, bool has_parallel_reader) {
  // The iteration count is in the name so the tier-1 run and the longer
  // sweep (same binary, more iterations) can run side by side under
  // `ctest -j` without truncating each other's mapped file.
  const int iters = fuzz_iters();
  const std::string path = ::testing::TempDir() + "/scol_fuzz_" + tag + "_" +
                           std::to_string(iters) + ".bin";
  for (int iter = 0; iter < iters; ++iter) {
    Rng rng(Rng::stream(0xf022, static_cast<std::uint64_t>(iter)).below(
        ~std::uint64_t{0}));
    std::string text = seed_text;
    const int mutations = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < mutations; ++i) mutate_once(text, rng);
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    SCOPED_TRACE(tag + " iter " + std::to_string(iter));

    const Outcome streaming = read_outcome(path, format, 1);
    if (!streaming.ok) expect_position_prefix(streaming.error, path);
    if (has_parallel_reader)
      for (const int threads : {2, 5})
        expect_same_outcome(
            streaming, read_outcome(path, format, threads),
            tag + " iter " + std::to_string(iter) + " threads=" +
                std::to_string(threads));
  }
  std::remove(path.c_str());
}

TEST(IoFuzz, EdgeListMutationsNeverCrashAndReadersAgree) {
  run_fuzz("edges", seed_edge_list(), GraphFormat::kEdgeList,
           /*has_parallel_reader=*/true);
}

TEST(IoFuzz, MetisMutationsNeverCrashAndReadersAgree) {
  run_fuzz("metis", seed_metis(), GraphFormat::kMetis,
           /*has_parallel_reader=*/true);
}

TEST(IoFuzz, DimacsMutationsNeverCrash) {
  run_fuzz("dimacs", seed_dimacs(), GraphFormat::kDimacs,
           /*has_parallel_reader=*/false);
}

TEST(IoFuzz, MatrixMarketMutationsNeverCrash) {
  run_fuzz("mtx", seed_mtx(), GraphFormat::kMatrixMarket,
           /*has_parallel_reader=*/false);
}

}  // namespace
}  // namespace scol

// Round-trip and adversarial coverage of the file readers/writers
// (src/scol/io/io.h), the structure probe (src/scol/io/probe.h), the
// "file" scenario, and the registry's structural preconditions.
//
// Every reader failure must carry a "name:line:column" position — the
// contract cataloged in docs/FORMATS.md — so each adversarial case
// asserts both the reason and the position of its error message.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "scol/api/registry.h"
#include "scol/api/scenario.h"
#include "scol/flow/density.h"
#include "scol/gen/lattice.h"
#include "scol/gen/random.h"
#include "scol/gen/scale.h"
#include "scol/gen/special.h"
#include "scol/io/io.h"
#include "scol/io/probe.h"
#include "scol/io/reader_detail.h"
#include "scol/serve/hash.h"
#include "scol/util/rng.h"

namespace scol {
namespace {

ReadResult parse(const std::string& text, GraphFormat format,
                 const std::string& name = "test") {
  std::istringstream in(text);
  return read_graph(in, format, name);
}

// Runs `fn`, which must throw PreconditionError, and returns the message.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a PreconditionError";
  return "";
}

#define EXPECT_CONTAINS(haystack, needle)                             \
  EXPECT_NE((haystack).find(needle), std::string::npos) << (haystack)

// --- DIMACS ---------------------------------------------------------------

TEST(IoDimacs, ParsesCommentsHeaderAndEdges) {
  const ReadResult r = parse(
      "c a classic instance\n"
      "c with two comment lines\n"
      "p edge 4 3\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 3 4\n",
      GraphFormat::kDimacs);
  EXPECT_EQ(r.graph.num_vertices(), 4);
  EXPECT_EQ(r.graph.num_edges(), 3);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
  EXPECT_TRUE(r.graph.has_edge(2, 3));
  EXPECT_EQ(r.stats.format, GraphFormat::kDimacs);
  EXPECT_EQ(r.stats.declared_n, 4);
  EXPECT_EQ(r.stats.declared_m, 3);
  EXPECT_EQ(r.stats.comment_lines, 2);
  EXPECT_FALSE(r.stats.zero_indexed);
}

TEST(IoDimacs, CrlfLineEndingsParse) {
  const ReadResult r = parse("p edge 2 1\r\ne 1 2\r\n", GraphFormat::kDimacs);
  EXPECT_EQ(r.graph.num_vertices(), 2);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
}

TEST(IoDimacs, ZeroBasedIdsAreDetected) {
  const ReadResult r =
      parse("p edge 3 2\ne 0 1\ne 1 2\n", GraphFormat::kDimacs);
  EXPECT_TRUE(r.stats.zero_indexed);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
  EXPECT_TRUE(r.graph.has_edge(1, 2));
}

TEST(IoDimacs, DuplicateReversedAndSelfLoopEdgesAreDroppedWithCounts) {
  const ReadResult r = parse(
      "p edge 3 4\ne 1 2\ne 2 1\ne 1 1\ne 2 3\n", GraphFormat::kDimacs);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_EQ(r.stats.edge_records, 4);
  EXPECT_EQ(r.stats.duplicate_edges, 1);
  EXPECT_EQ(r.stats.self_loops, 1);
}

TEST(IoDimacs, TruncatedFileCarriesPosition) {
  const std::string msg = error_of(
      [] { parse("p edge 3 2\ne 1 2\n", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:3:1");
  EXPECT_CONTAINS(msg, "declared 2 edges but the file contains 1");
}

TEST(IoDimacs, WrongDeclaredEdgeCountTooManyLines) {
  const std::string msg = error_of([] {
    parse("p edge 3 1\ne 1 2\ne 2 3\n", GraphFormat::kDimacs, "g.col");
  });
  EXPECT_CONTAINS(msg, "g.col:4:1");
  EXPECT_CONTAINS(msg, "declared 1 edges but the file contains 2");
}

TEST(IoDimacs, NonIntegerVertexIdCarriesLineAndColumn) {
  const std::string msg = error_of(
      [] { parse("p edge 3 1\ne 1 x\n", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:2:5");
  EXPECT_CONTAINS(msg, "expected an integer vertex id, got 'x'");
}

TEST(IoDimacs, OutOfRangeVertexId) {
  const std::string msg = error_of(
      [] { parse("p edge 3 1\ne 1 7\n", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:2:5");
  EXPECT_CONTAINS(msg, "vertex id 7 out of range");
}

TEST(IoDimacs, HugeVertexIdIsRangeCheckedNotWrapped) {
  // 2^33 would alias a small id if the reader narrowed before checking.
  const std::string msg = error_of([] {
    parse("p edge 3 1\ne 1 8589934592\n", GraphFormat::kDimacs, "g.col");
  });
  EXPECT_CONTAINS(msg, "g.col:2:5");
  EXPECT_CONTAINS(msg, "8589934592 out of range");
}

TEST(IoDimacs, VertexCountBeyondInt32IsRejectedNotWrapped) {
  // 2^32 + 5 would silently become a 5-vertex graph if the count were
  // narrowed before checking. Counts up to the 32-bit id limit build
  // through the 64-bit-offset CSR path; only genuinely unrepresentable
  // counts are rejected, and the message names the limit.
  std::string msg = error_of([] {
    parse("p edge 4294967301 1\ne 1 2\n", GraphFormat::kDimacs, "g.col");
  });
  EXPECT_CONTAINS(msg, "g.col:1:8");
  EXPECT_CONTAINS(msg, "exceeds the 32-bit vertex-id limit of 2147483647");
  EXPECT_CONTAINS(msg, "counts up to the limit build");
  msg = error_of([] {
    parse("3000000000 1\n2\n1\n", GraphFormat::kMetis, "g.graph");
  });
  EXPECT_CONTAINS(msg, "exceeds the 32-bit vertex-id limit of 2147483647");
}

TEST(IoDimacs, MixedZeroAndOneBasedIdsAreRejected) {
  const std::string msg = error_of([] {
    parse("p edge 3 2\ne 0 1\ne 2 3\n", GraphFormat::kDimacs, "g.col");
  });
  EXPECT_CONTAINS(msg, "g.col:3:1");
  EXPECT_CONTAINS(msg, "mixes 0-based and 1-based");
}

TEST(IoDimacs, UnknownLineTypeEdgeBeforeHeaderAndSecondHeader) {
  std::string msg = error_of(
      [] { parse("p edge 2 1\nq 1 2\n", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:2:1");
  EXPECT_CONTAINS(msg, "unknown DIMACS line type 'q'");

  msg = error_of([] { parse("e 1 2\n", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:1:1");
  EXPECT_CONTAINS(msg, "before the 'p' problem line");

  msg = error_of([] {
    parse("p edge 2 1\np edge 2 1\ne 1 2\n", GraphFormat::kDimacs, "g.col");
  });
  EXPECT_CONTAINS(msg, "g.col:2:1");
  EXPECT_CONTAINS(msg, "second 'p' problem line");
}

TEST(IoDimacs, EmptyFileAndMissingHeader) {
  std::string msg =
      error_of([] { parse("", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:1:1");
  EXPECT_CONTAINS(msg, "without a 'p edge");

  msg = error_of(
      [] { parse("c only comments\n", GraphFormat::kDimacs, "g.col"); });
  EXPECT_CONTAINS(msg, "g.col:2:1");
}

// --- METIS ----------------------------------------------------------------

TEST(IoMetis, ParsesAdjacencyListsWithCommentsAndIsolatedVertex) {
  // P3 plus an isolated vertex 3 (its adjacency line is blank).
  const ReadResult r = parse(
      "% a comment\n"
      "4 2\n"
      "2\n"
      "1 3\n"
      "2\n"
      "\n",
      GraphFormat::kMetis);
  EXPECT_EQ(r.graph.num_vertices(), 4);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
  EXPECT_TRUE(r.graph.has_edge(1, 2));
  EXPECT_EQ(r.graph.degree(3), 0);
  EXPECT_EQ(r.stats.comment_lines, 1);
  EXPECT_EQ(r.stats.declared_n, 4);
  EXPECT_EQ(r.stats.declared_m, 2);
}

TEST(IoMetis, EdgeWeightsAreParsedAndIgnored) {
  const ReadResult r = parse(
      "3 2 1\n"
      "2 10\n"
      "1 10 3 20\n"
      "2 20\n",
      GraphFormat::kMetis);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
  EXPECT_TRUE(r.graph.has_edge(1, 2));
}

TEST(IoMetis, VertexWeightsAreParsedAndIgnored) {
  // fmt=11: one vertex weight then (neighbor, edge weight) pairs.
  const ReadResult r = parse(
      "2 1 11\n"
      "7 2 3\n"
      "9 1 3\n",
      GraphFormat::kMetis);
  EXPECT_EQ(r.graph.num_edges(), 1);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
}

TEST(IoMetis, AsymmetricAdjacencyListsAreKeptButCounted) {
  // Edge {0,1} is mirrored; {0,2} and {1,2} each appear from one
  // endpoint only. The entry total still matches 2*m, so the file
  // parses — but the tolerance must be visible in the stats.
  const ReadResult r = parse(
      "3 2\n"
      "2 3\n"
      "1 3\n"
      "\n",
      GraphFormat::kMetis);
  EXPECT_EQ(r.graph.num_edges(), 3);
  EXPECT_EQ(r.stats.asymmetric_edges, 2);
  EXPECT_EQ(r.stats.duplicate_edges, 0);
}

// Rows in every order the METIS tail must handle: unsorted, sorted,
// descending, with same-row duplicates, self-loops and entries the other
// endpoint does not mirror. Both readers must build the same graph and
// ReadStats, and both are pinned (digest and counts).
struct MetisRowsPin {
  std::string text;
  const char* digest;
  std::int64_t duplicates;
  std::int64_t self_loops;
  std::int64_t asymmetric;
  bool zero_indexed;
};

// A seeded METIS file of `n` vertices: mostly mirrored edges, plus
// duplicates, self-loops and one-sided entries, each row written sorted,
// shuffled or descending. `base` is 0 or 1; with base 0 vertex 0 is
// listed so the file resolves as 0-based.
std::string seeded_metis_rows(int n, int base, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(n));
  for (int e = 0; e < 3 * n; ++e) {
    const std::size_t u = rng.below(rows.size());
    const std::size_t v = rng.below(rows.size());
    rows[u].push_back(static_cast<int>(v));
    if (u != v && !rng.chance(0.1)) rows[v].push_back(static_cast<int>(u));
    if (rng.chance(0.1)) rows[u].push_back(static_cast<int>(v));
  }
  rows[0].push_back(0);  // a guaranteed self-loop (and id `base`)
  std::size_t entries = 0;
  for (const auto& row : rows) entries += row.size();
  if (entries % 2 != 0) {
    rows[1].push_back(1);
    ++entries;
  }
  std::string text = "% seeded rows\n" + std::to_string(n) + " " +
                     std::to_string(entries / 2) + "\n";
  for (auto& row : rows) {
    switch (rng.below(3)) {
      case 0:
        std::sort(row.begin(), row.end());
        break;
      case 1:
        rng.shuffle(row);
        break;
      default:
        std::sort(row.rbegin(), row.rend());
        break;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) text += ' ';
      text += std::to_string(row[i] + base);
    }
    text += '\n';
  }
  return text;
}

TEST(IoMetis, UnsortedDuplicateAndUnmirroredRowsArePinned) {
  const std::string path = ::testing::TempDir() + "/scol_io_metis_rows.graph";
  for (const MetisRowsPin& pin : {
           // Row 1 unsorted with a duplicate, row 2 sorted with one and
           // listing 4, which row 4 does not mirror; row 3 unsorted with
           // a self-loop.
           MetisRowsPin{"4 6\n3 2 2 4\n1 1 3 4\n2 1 3\n1\n",
                        "62e6eee6da8f6e9cb632960998c474a8", 2, 1, 1, false},
           // Self-loops first, inside, last and alone; sorted and unsorted
           // rows that repeat.
           MetisRowsPin{"4 6\n1 3 2\n1 2 3 3\n2 2 1 3\n4\n",
                        "75b9f43e5ec402de4d60e33c68b6e91b", 2, 4, 0, false},
           // 0-based, every row descending.
           MetisRowsPin{"4 4\n3 2 1\n0\n3 0\n2 0\n",
                        "007adfacfd16e1f6bd20385f57bd63ca", 0, 0, 0, true},
           MetisRowsPin{seeded_metis_rows(300, 1, 41),
                        "453bfb0df405cdf7f606d05156bb8cd3", 104, 4, 72,
                        false},
           MetisRowsPin{seeded_metis_rows(2000, 0, 42),
                        "3c43a005d77380a9e2c182ab06d1828b", 634, 6, 564,
                        true},
       }) {
    {
      std::ofstream out(path, std::ios::binary);
      out << pin.text;
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(pin.digest) + " threads=" +
                   std::to_string(threads));
      ReadOptions options;
      options.threads = threads;
      const ReadResult r = read_graph_file(path, GraphFormat::kMetis, options);
      EXPECT_EQ(hash_graph(r.graph).hex(), pin.digest);
      EXPECT_EQ(r.stats.duplicate_edges, pin.duplicates);
      EXPECT_EQ(r.stats.self_loops, pin.self_loops);
      EXPECT_EQ(r.stats.asymmetric_edges, pin.asymmetric);
      EXPECT_EQ(r.stats.zero_indexed, pin.zero_indexed);
      EXPECT_EQ(r.stats.edge_records, 2 * r.stats.declared_m);
    }
  }
  std::remove(path.c_str());
}

TEST(IoMetis, TruncatedFileCarriesPosition) {
  const std::string msg = error_of(
      [] { parse("4 2\n2\n1 3\n", GraphFormat::kMetis, "g.graph"); });
  EXPECT_CONTAINS(msg, "g.graph:4:1");
  EXPECT_CONTAINS(msg, "ends after 2 of the 4 declared adjacency lines");
}

TEST(IoMetis, WrongDeclaredEdgeCount) {
  const std::string msg = error_of([] {
    parse("3 3\n2\n1 3\n2\n", GraphFormat::kMetis, "g.graph");
  });
  EXPECT_CONTAINS(msg, "g.graph:5:1");
  EXPECT_CONTAINS(msg, "declared 3 edges");
  EXPECT_CONTAINS(msg, "4 entries");
}

TEST(IoMetis, DataAfterLastAdjacencyLine) {
  const std::string msg = error_of([] {
    parse("2 1\n2\n1\n1 2\n", GraphFormat::kMetis, "g.graph");
  });
  EXPECT_CONTAINS(msg, "g.graph:4:1");
  EXPECT_CONTAINS(msg, "data after the last");
}

TEST(IoMetis, MissingEdgeWeightToken) {
  const std::string msg = error_of([] {
    parse("2 1 1\n2 5\n1\n", GraphFormat::kMetis, "g.graph");
  });
  EXPECT_CONTAINS(msg, "g.graph:3:1");
  EXPECT_CONTAINS(msg, "no weight token");
}

TEST(IoMetis, BadFmtCodeAndBadHeader) {
  std::string msg = error_of(
      [] { parse("2 1 7\n2\n1\n", GraphFormat::kMetis, "g.graph"); });
  EXPECT_CONTAINS(msg, "g.graph:1:5");
  EXPECT_CONTAINS(msg, "fmt code");

  msg = error_of([] { parse("2\n", GraphFormat::kMetis, "g.graph"); });
  EXPECT_CONTAINS(msg, "g.graph:1:1");
  EXPECT_CONTAINS(msg, "header must be");

  msg = error_of([] { parse("\n\n", GraphFormat::kMetis, "g.graph"); });
  EXPECT_CONTAINS(msg, "g.graph:3:1");
  EXPECT_CONTAINS(msg, "ends before the");
}

// --- Matrix Market --------------------------------------------------------

TEST(IoMatrixMarket, ParsesPatternSymmetric) {
  const ReadResult r = parse(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% triangle\n"
      "3 3 3\n"
      "2 1\n"
      "3 1\n"
      "3 2\n",
      GraphFormat::kMatrixMarket);
  EXPECT_EQ(r.graph.num_vertices(), 3);
  EXPECT_EQ(r.graph.num_edges(), 3);
  EXPECT_EQ(r.stats.comment_lines, 1);
}

TEST(IoMatrixMarket, GeneralSymmetryDeduplicatesBothTriangles) {
  const ReadResult r = parse(
      "%%MatrixMarket matrix coordinate integer general\n"
      "3 3 4\n"
      "1 2 5\n"
      "2 1 5\n"
      "2 3 1\n"
      "3 2 1\n",
      GraphFormat::kMatrixMarket);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_EQ(r.stats.duplicate_edges, 2);
}

TEST(IoMatrixMarket, DiagonalEntriesAreDroppedAsSelfLoops) {
  const ReadResult r = parse(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "2 2 2\n"
      "1 1\n"
      "2 1\n",
      GraphFormat::kMatrixMarket);
  EXPECT_EQ(r.graph.num_edges(), 1);
  EXPECT_EQ(r.stats.self_loops, 1);
}

TEST(IoMatrixMarket, DenseArrayFormatIsRejected) {
  const std::string msg = error_of([] {
    parse("%%MatrixMarket matrix array real general\n2 2 4\n",
          GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:1:23");
  EXPECT_CONTAINS(msg, "unsupported format 'array'");
}

TEST(IoMatrixMarket, RectangularMatrixIsRejected) {
  const std::string msg = error_of([] {
    parse("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n",
          GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:2:3");
  EXPECT_CONTAINS(msg, "must be square, got 2x3");
}

TEST(IoMatrixMarket, TruncatedEntriesCarryPosition) {
  const std::string msg = error_of([] {
    parse("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n",
          GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:4:1");
  EXPECT_CONTAINS(msg, "declared 2 entries but the file ends after 1");
}

TEST(IoMatrixMarket, ExtraEntriesAreRejected) {
  const std::string msg = error_of([] {
    parse("%%MatrixMarket matrix coordinate pattern general\n"
          "3 3 1\n1 2\n2 3\n",
          GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:4:1");
  EXPECT_CONTAINS(msg, "contains more");
}

TEST(IoMatrixMarket, WrongValueTokenCountForField) {
  const std::string msg = error_of([] {
    parse("%%MatrixMarket matrix coordinate pattern general\n"
          "3 3 1\n1 2 5\n",
          GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:3:1");
  EXPECT_CONTAINS(msg, "for field 'pattern', got 3 token(s)");
}

TEST(IoMatrixMarket, FirmlyOneBasedSoZeroIsOutOfRange) {
  const std::string msg = error_of([] {
    parse("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 2\n",
          GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:3:1");
  EXPECT_CONTAINS(msg, "vertex id 0 out of range [1, 3]");
}

TEST(IoMatrixMarket, GarbageHeaderIsRejected) {
  const std::string msg = error_of([] {
    parse("%%NotMatrixMarket\n", GraphFormat::kMatrixMarket, "g.mtx");
  });
  EXPECT_CONTAINS(msg, "g.mtx:1:1");
  EXPECT_CONTAINS(msg, "%%MatrixMarket");
}

// --- Edge list ------------------------------------------------------------

TEST(IoEdgeList, HugeSparseIdsAreRemappedDensely) {
  const ReadResult r = parse(
      "# SNAP-style dump\n"
      "1000000000000 2000000000000\n"
      "2000000000000 3000000000000 0.5\n",
      GraphFormat::kEdgeList);
  EXPECT_EQ(r.graph.num_vertices(), 3);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_TRUE(r.graph.has_edge(0, 1));
  EXPECT_TRUE(r.graph.has_edge(1, 2));
  EXPECT_FALSE(r.stats.zero_indexed);
  EXPECT_EQ(r.stats.comment_lines, 1);
}

TEST(IoEdgeList, CommentsBlanksDuplicatesAndSelfLoops) {
  const ReadResult r = parse(
      "% percent comment\n"
      "# hash comment\n"
      "\n"
      "0 1\n"
      "1 0\n"
      "1 1\n"
      "1 2\n",
      GraphFormat::kEdgeList);
  EXPECT_EQ(r.graph.num_vertices(), 3);
  EXPECT_EQ(r.graph.num_edges(), 2);
  EXPECT_EQ(r.stats.duplicate_edges, 1);
  EXPECT_EQ(r.stats.self_loops, 1);
  EXPECT_TRUE(r.stats.zero_indexed);
}

TEST(IoEdgeList, SingleTokenLineCarriesPosition) {
  const std::string msg = error_of(
      [] { parse("0 1\n7\n", GraphFormat::kEdgeList, "g.edges"); });
  EXPECT_CONTAINS(msg, "g.edges:2:1");
  EXPECT_CONTAINS(msg, "must be '<u> <v>'");
}

TEST(IoEdgeList, NegativeIdsAndBadWeightsAreRejected) {
  std::string msg = error_of(
      [] { parse("0 -2\n", GraphFormat::kEdgeList, "g.edges"); });
  EXPECT_CONTAINS(msg, "g.edges:1:3");
  EXPECT_CONTAINS(msg, "non-negative");

  msg = error_of(
      [] { parse("0 1 heavy\n", GraphFormat::kEdgeList, "g.edges"); });
  EXPECT_CONTAINS(msg, "g.edges:1:5");
  EXPECT_CONTAINS(msg, "expected a numeric edge weight");
}

TEST(IoEdgeList, EmptyFileYieldsEmptyGraph) {
  const ReadResult r = parse("# nothing\n", GraphFormat::kEdgeList);
  EXPECT_EQ(r.graph.num_vertices(), 0);
  EXPECT_EQ(r.graph.num_edges(), 0);
}

// --- Round trips ----------------------------------------------------------

class IoRoundTrip : public ::testing::TestWithParam<GraphFormat> {};

TEST_P(IoRoundTrip, WriteThenReadIsIdentity) {
  Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(petersen());
  graphs.push_back(grid(5, 4));
  graphs.push_back(gnm(30, 45, rng));
  graphs.push_back(cycle(9));
  for (const Graph& g : graphs) {
    std::ostringstream os;
    write_graph(os, g, GetParam());
    const ReadResult r = parse(os.str(), GetParam());
    EXPECT_EQ(r.graph.num_vertices(), g.num_vertices());
    EXPECT_EQ(r.graph.edges(), g.edges());
    EXPECT_EQ(r.stats.duplicate_edges, 0);
    EXPECT_EQ(r.stats.self_loops, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, IoRoundTrip,
                         ::testing::Values(GraphFormat::kDimacs,
                                           GraphFormat::kMetis,
                                           GraphFormat::kMatrixMarket,
                                           GraphFormat::kEdgeList),
                         [](const auto& info) {
                           return format_name(info.param);
                         });

TEST(IoRoundTrip, IsolatedVerticesSurviveExceptInEdgeLists) {
  // Triangle plus an isolated vertex: representable in every
  // header-carrying format, impossible in a bare edge list.
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {1, 2}});
  for (const GraphFormat format :
       {GraphFormat::kDimacs, GraphFormat::kMetis,
        GraphFormat::kMatrixMarket}) {
    std::ostringstream os;
    write_graph(os, g, format);
    const ReadResult r = parse(os.str(), format);
    EXPECT_EQ(r.graph.num_vertices(), 4);
    EXPECT_EQ(r.graph.edges(), g.edges());
  }
  std::ostringstream os;
  const std::string msg = error_of(
      [&] { write_graph(os, g, GraphFormat::kEdgeList); });
  EXPECT_CONTAINS(msg, "isolated vertex 3");
}

// --- Format names, sniffing, files ---------------------------------------

TEST(IoFormat, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_format("auto"), GraphFormat::kAuto);
  EXPECT_EQ(parse_format("dimacs"), GraphFormat::kDimacs);
  EXPECT_EQ(parse_format("col"), GraphFormat::kDimacs);
  EXPECT_EQ(parse_format("metis"), GraphFormat::kMetis);
  EXPECT_EQ(parse_format("graph"), GraphFormat::kMetis);
  EXPECT_EQ(parse_format("mtx"), GraphFormat::kMatrixMarket);
  EXPECT_EQ(parse_format("edges"), GraphFormat::kEdgeList);
  EXPECT_EQ(format_name(GraphFormat::kMatrixMarket), "mtx");
  const std::string msg = error_of([] { parse_format("pajek"); });
  EXPECT_CONTAINS(msg, "unknown graph format 'pajek'");
}

TEST(IoFormat, SniffByExtensionThenContent) {
  EXPECT_EQ(sniff_format("a/b/x.col", ""), GraphFormat::kDimacs);
  EXPECT_EQ(sniff_format("x.graph", ""), GraphFormat::kMetis);
  EXPECT_EQ(sniff_format("x.MTX", ""), GraphFormat::kMatrixMarket);
  EXPECT_EQ(sniff_format("x.edges", ""), GraphFormat::kEdgeList);
  EXPECT_EQ(sniff_format("x.dat", "%%MatrixMarket matrix ..."),
            GraphFormat::kMatrixMarket);
  EXPECT_EQ(sniff_format("x.dat", "c hi\np edge 3 2\n"),
            GraphFormat::kDimacs);
  const std::string msg =
      error_of([] { sniff_format("x.dat", "3 2\n1 2\n"); });
  EXPECT_CONTAINS(msg, "cannot sniff");
}

TEST(IoFormat, StreamReaderRejectsAuto) {
  std::istringstream in("p edge 1 0\n");
  EXPECT_THROW(read_graph(in, GraphFormat::kAuto, "x"), PreconditionError);
}

TEST(IoFile, MissingFileNamesThePath) {
  const std::string msg = error_of(
      [] { read_graph_file("/nonexistent/never.col"); });
  EXPECT_CONTAINS(msg, "/nonexistent/never.col");
  EXPECT_CONTAINS(msg, "cannot open");
}

TEST(IoFile, WriteFileInfersFormatAndRoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/scol_io_roundtrip.col";
  const Graph g = grid(3, 5);
  write_graph_file(path, g);
  const ReadResult r = read_graph_file(path);
  EXPECT_EQ(r.stats.format, GraphFormat::kDimacs);
  EXPECT_EQ(r.graph.edges(), g.edges());
}

// --- Tokenizer ------------------------------------------------------------

// The tokenizer as it was before whitespace became an explicit byte set:
// one std::isspace call per byte, under the process locale (never changed
// from "C" in this program). Kept as the oracle that the explicit set cuts
// the same tokens at the same columns.
std::vector<io_detail::Token> isspace_tokens(std::string_view line) {
  std::vector<io_detail::Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    out.push_back({line.substr(start, i - start), start + 1});
  }
  return out;
}

void expect_same_tokens(std::string_view line) {
  std::vector<io_detail::Token> got;
  io_detail::tokenize(line, got);
  const std::vector<io_detail::Token> want = isspace_tokens(line);
  std::string shown;
  for (const char c : line)
    shown += std::to_string(static_cast<unsigned char>(c)) + " ";
  ASSERT_EQ(got.size(), want.size()) << "bytes: " << shown;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].text, want[i].text) << "bytes: " << shown;
    EXPECT_EQ(got[i].col, want[i].col) << "bytes: " << shown;
  }
}

TEST(IoTokenize, MatchesIsspaceOracleOnEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    // `c` as a separator, as a whole token, and inside a token.
    for (const std::string& line :
         {std::string{'1', c, '2'}, std::string{c, '1', '2', c},
          std::string{c}, std::string{c, c}, std::string{'7', ' ', c, ' ', '8'},
          std::string{'\t', c, c, '\r'}, std::string{'+', '0', c, '-', '0'}})
      expect_same_tokens(line);
  }
  for (const std::string_view line :
       {std::string_view("1\t2"), std::string_view("\v3\f4\r"),
        std::string_view(" +007 -0 0009\t\t-12\r"),
        std::string_view("1\xA0" "2 \xA0" "3\xA0"),
        std::string_view("+ - +- -+ 00 -007"),
        std::string_view("\f\v\t\r\n "), std::string_view(""),
        std::string_view("\0 1\0", 4)})
    expect_same_tokens(line);
}

TEST(IoTokenize, MatchesIsspaceOracleOnSeededLines) {
  // Lines over separators, near-separators (0xA0, NUL, 0x1C..0x1F) and
  // the bytes numbers are made of.
  const std::string alphabet("  \t\v\f\r\n\xA0\x1c\x1f\0+-0017x", 18);
  Rng rng(0x70c);
  for (int t = 0; t < 4000; ++t) {
    std::string line(rng.below(40), ' ');
    for (char& c : line) c = alphabet[rng.below(alphabet.size())];
    expect_same_tokens(line);
  }
}

// --- Bundled instances (examples/graphs) match the generators -------------

TEST(IoBundled, GrotzschColMatchesGenerator) {
  const ReadResult r = read_graph_file(
      std::string(SCOL_REPO_DIR) + "/examples/graphs/grotzsch.col");
  EXPECT_EQ(r.graph.edges(), grotzsch().edges());
}

TEST(IoBundled, Grid8x8GraphMatchesGenerator) {
  const ReadResult r = read_graph_file(
      std::string(SCOL_REPO_DIR) + "/examples/graphs/grid8x8.graph");
  EXPECT_EQ(r.graph.edges(), grid(8, 8).edges());
}

TEST(IoBundled, PetersenMtxMatchesGenerator) {
  const ReadResult r = read_graph_file(
      std::string(SCOL_REPO_DIR) + "/examples/graphs/petersen.mtx");
  EXPECT_EQ(r.graph.edges(), petersen().edges());
}

TEST(IoBundled, HeawoodEdgesMatchesGenerator) {
  const ReadResult r = read_graph_file(
      std::string(SCOL_REPO_DIR) + "/examples/graphs/heawood.edges");
  EXPECT_EQ(r.graph.edges(), heawood().edges());
}

// --- The "file" scenario --------------------------------------------------

TEST(IoScenario, FileScenarioBuildsThroughTheRegistry) {
  const std::string path = std::string(SCOL_REPO_DIR) +
                           "/examples/graphs/grotzsch.col";
  Rng rng(1);
  const Graph g = build_scenario("file:path=" + path, rng);
  EXPECT_EQ(g.edges(), grotzsch().edges());
  // Explicit format override takes the same route.
  const Graph h =
      build_scenario("file:path=" + path + ",format=dimacs", rng);
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(IoScenario, FileScenarioErrors) {
  Rng rng(1);
  std::string msg = error_of([&] { build_scenario("file", rng); });
  EXPECT_CONTAINS(msg, "needs a path=");

  msg = error_of(
      [&] { build_scenario("file:path=/nope.col,format=pajek", rng); });
  EXPECT_CONTAINS(msg, "unknown graph format 'pajek'");

  // Unknown keys get the whitelist + did-you-mean treatment.
  msg = error_of([&] { build_scenario("file:paht=/nope.col", rng); });
  EXPECT_CONTAINS(msg, "unknown key 'paht'");
  EXPECT_CONTAINS(msg, "did you mean 'path'?");
}

// --- Structure probe ------------------------------------------------------

TEST(Probe, GridFactsAreExact) {
  const GraphProbe p = probe_graph(grid(6, 6));
  EXPECT_EQ(p.n, 36);
  EXPECT_EQ(p.m, 60);
  EXPECT_EQ(p.max_degree, 4);
  EXPECT_EQ(p.degeneracy, 2);
  EXPECT_TRUE(p.mad_exact);
  EXPECT_GE(p.mad_upper, 10.0 / 3.0);  // the grid's own average degree
  EXPECT_LE(p.mad_upper, 4.0);
  EXPECT_TRUE(p.arboricity_exact);
  EXPECT_EQ(p.arboricity_upper, 2);
  EXPECT_TRUE(p.connected);
  EXPECT_FALSE(p.forest);
  EXPECT_FALSE(p.complete);
  EXPECT_EQ(p.girth, 4);
  EXPECT_EQ(p.girth_floor, 4);
  EXPECT_TRUE(p.triangle_free);
  EXPECT_EQ(p.planar, ProbeVerdict::kYes);
}

TEST(Probe, PetersenIsNonPlanarWithGirthFive) {
  const GraphProbe p = probe_graph(petersen());
  EXPECT_EQ(p.girth, 5);
  EXPECT_EQ(p.degeneracy, 3);
  EXPECT_EQ(p.planar, ProbeVerdict::kNo);
  EXPECT_TRUE(p.triangle_free);
}

TEST(Probe, ForestsAndComponents) {
  const GraphProbe p = probe_graph(path(10));
  EXPECT_TRUE(p.forest);
  EXPECT_EQ(p.girth, -1);
  EXPECT_EQ(p.girth_floor, ProbeOptions{}.girth_limit + 1);

  const GraphProbe q = probe_graph(disjoint_union(grid(3, 3), path(4)));
  EXPECT_EQ(q.components, 2);
  EXPECT_FALSE(q.connected);
}

TEST(Probe, CompleteGraphAndTriangles) {
  const GraphProbe p = probe_graph(complete(5));
  EXPECT_TRUE(p.complete);
  EXPECT_FALSE(p.triangle_free);
  EXPECT_EQ(p.girth, 3);
  EXPECT_EQ(p.degeneracy, 4);
  EXPECT_EQ(p.arboricity_upper, 3);  // ceil(10 / 4), exact on K5
}

TEST(Probe, GirthScanIsBoundedButExtendable) {
  // C20: no cycle within the default scan limit, so only a floor is
  // certified; a larger limit pins the girth exactly.
  const GraphProbe p = probe_graph(cycle(20));
  EXPECT_EQ(p.girth, -1);
  EXPECT_EQ(p.girth_floor, ProbeOptions{}.girth_limit + 1);
  ProbeOptions deep;
  deep.girth_limit = 20;
  const GraphProbe q = probe_graph(cycle(20), deep);
  EXPECT_EQ(q.girth, 20);
  EXPECT_EQ(q.girth_floor, 20);

  // The limit clamps to >= 3: a shallower scan could not certify the
  // triangle-free verdict, so K3 must never probe as triangle-free.
  ProbeOptions shallow;
  shallow.girth_limit = 0;
  const GraphProbe k3 = probe_graph(complete(3), shallow);
  EXPECT_EQ(k3.girth, 3);
  EXPECT_FALSE(k3.triangle_free);
}

TEST(Probe, PlanarityAndMadRespectLimits) {
  ProbeOptions tiny;
  tiny.planarity_limit = 5;
  tiny.exact_mad_limit = 5;
  const GraphProbe p = probe_graph(grid(3, 3), tiny);
  EXPECT_EQ(p.planar, ProbeVerdict::kUnknown);
  EXPECT_FALSE(p.mad_exact);
  EXPECT_EQ(p.mad_upper, 2.0 * p.degeneracy);
  EXPECT_FALSE(p.arboricity_exact);
  EXPECT_EQ(p.arboricity_upper, p.degeneracy);
  // The peel bound is still a true upper bound on the exact mad.
  EXPECT_GE(p.mad_upper, maximum_average_degree(grid(3, 3)).value());
}

TEST(Probe, DescribeMentionsTheHeadlineFacts) {
  const std::string text = describe(probe_graph(petersen()));
  EXPECT_CONTAINS(text, "n=10");
  EXPECT_CONTAINS(text, "degeneracy=3");
  EXPECT_CONTAINS(text, "planar=no");
}

// --- Sampled probe (ProbeOptions::budget) ---------------------------------

TEST(Probe, BudgetZeroAndRoomyBudgetsStayExact) {
  // budget = 0 (the default) and any budget the instance fits under must
  // leave the probe on the exact path, byte-for-byte.
  ProbeOptions roomy;
  roomy.budget = 1 << 20;
  const GraphProbe exact = probe_graph(grid(6, 6));
  const GraphProbe under = probe_graph(grid(6, 6), roomy);
  EXPECT_FALSE(exact.sampled);
  EXPECT_FALSE(under.sampled);
  EXPECT_TRUE(under.degeneracy_exact);
  EXPECT_EQ(under.degeneracy, exact.degeneracy);
  EXPECT_EQ(under.degeneracy_lower, exact.degeneracy);
  EXPECT_EQ(describe(under), describe(exact));
}

TEST(Probe, SampledFactsAreWeakerButCertified) {
  // pref-attach has a max degree well above its degeneracy (= k) and
  // plenty of triangles: every sampled fact must be implied by the exact
  // ones, just looser — that is what keeps campaign eligibility sound
  // (a sampled probe can only skip more, never run an ineligible cell).
  Rng rng(401);
  const Graph g = pref_attach(4000, 3, rng);
  const GraphProbe exact = probe_graph(g);
  ProbeOptions opts;
  opts.budget = 4096;  // n + m ~ 16k: well past the budget, sampled mode
  const GraphProbe s = probe_graph(g, opts);
  ASSERT_TRUE(s.sampled);
  EXPECT_FALSE(s.degeneracy_exact);
  EXPECT_EQ(s.degeneracy, s.max_degree);  // the Δ fallback upper bound
  EXPECT_GE(s.degeneracy, exact.degeneracy);
  EXPECT_LE(s.degeneracy_lower, exact.degeneracy);  // induced-sample bound
  EXPECT_GE(s.degeneracy_lower, 1);
  EXPECT_FALSE(s.mad_exact);
  EXPECT_GE(s.mad_upper, exact.mad_upper);
  EXPECT_GE(s.arboricity_upper, exact.arboricity_upper);
  // Full-traversal facts are reported as uncertified, never guessed.
  EXPECT_EQ(s.components, 0);
  EXPECT_FALSE(s.connected);
  EXPECT_FALSE(s.forest);
  EXPECT_FALSE(s.triangle_free);
  EXPECT_EQ(s.planar, ProbeVerdict::kUnknown);
  // A sampled triangle pins the girth exactly; a miss certifies only
  // the trivial floor.
  EXPECT_EQ(s.girth_floor, 3);
  if (s.girth == 3) {
    EXPECT_EQ(exact.girth, 3);
  }
  // Pure function of the graph: same input, same sample, same facts.
  const GraphProbe again = probe_graph(g, opts);
  EXPECT_EQ(s.degeneracy_lower, again.degeneracy_lower);
  EXPECT_EQ(s.girth, again.girth);
}

TEST(Probe, SampledTriangleScanPinsGirthOnDenseGraphs) {
  ProbeOptions opts;
  opts.budget = 64;
  const GraphProbe s = probe_graph(complete(30), opts);
  ASSERT_TRUE(s.sampled);
  EXPECT_TRUE(s.complete);  // the one O(1) exact fact kept in sampled mode
  EXPECT_EQ(s.girth, 3);
  // The minimum sample size exceeds n here, so the "sample" is the whole
  // vertex set and the lower bound meets the exact degeneracy.
  EXPECT_EQ(s.degeneracy_lower, 29);
  EXPECT_EQ(s.degeneracy, 29);
}

TEST(Probe, SampledDescribeSaysSo) {
  ProbeOptions opts;
  opts.budget = 64;
  const std::string text = describe(probe_graph(complete(30), opts));
  EXPECT_CONTAINS(text, "degeneracy<=");
  EXPECT_CONTAINS(text, "degeneracy>=29");
  EXPECT_CONTAINS(text, "components=?");
  EXPECT_CONTAINS(text, " sampled");
}

// --- Registry preconditions against the probe -----------------------------

std::string skip_reason(const std::string& algorithm, const GraphProbe& p,
                        Vertex k, ParamBag params = {}) {
  const AlgorithmInfo& info = AlgorithmRegistry::instance().at(algorithm);
  return algorithm_skip_reason(info, EligibilityQuery{&p, &params, k});
}

TEST(Eligibility, PlanarFamilyRequiresCertifiedStructure) {
  const GraphProbe planar_grid = probe_graph(grid(5, 5));
  const GraphProbe nonplanar = probe_graph(petersen());
  EXPECT_EQ(skip_reason("planar6", planar_grid, 6), "");
  EXPECT_CONTAINS(skip_reason("planar6", nonplanar, 6), "not planar");
  EXPECT_CONTAINS(skip_reason("planar6", planar_grid, 5), "needs k >= 6");

  EXPECT_EQ(skip_reason("planar4-trianglefree", planar_grid, 4), "");
  EXPECT_CONTAINS(
      skip_reason("planar4-trianglefree", probe_graph(complete(4)), 4),
      "has a triangle");

  // Grid girth is 4; the hex patch certifies girth 6.
  EXPECT_CONTAINS(skip_reason("planar3-girth6", planar_grid, 3),
                  "girth 4 < 6");
  const GraphProbe hexp = probe_graph(hex_patch(4, 4));
  EXPECT_EQ(skip_reason("planar3-girth6", hexp, 3), "");
}

TEST(Eligibility, ParamGatedAlgorithmsAskForTheirParams) {
  const GraphProbe p = probe_graph(grid(5, 5));
  EXPECT_CONTAINS(skip_reason("genus", p, 7), "needs param genus");
  ParamBag genus2;
  genus2.set_int("genus", 2);
  EXPECT_EQ(skip_reason("genus", p, 7, genus2), "");
  EXPECT_CONTAINS(skip_reason("genus", p, 3, genus2), "needs k >= 7");
  EXPECT_CONTAINS(skip_reason("barenboim-elkin", p, -1),
                  "needs param arboricity");
  EXPECT_CONTAINS(skip_reason("exact", p, -1), "needs request.k");
  EXPECT_EQ(skip_reason("exact", p, 3), "");
}

TEST(Eligibility, DegeneracyGatedAlgorithms) {
  const GraphProbe dense = probe_graph(complete(8));  // degeneracy 7
  EXPECT_CONTAINS(skip_reason("gps", dense, -1), "degeneracy 7 >");
  EXPECT_EQ(skip_reason("gps", dense, 8), "");  // threshold k-1 = 7
  EXPECT_CONTAINS(skip_reason("sparse", dense, 4), "degeneracy 7 > d 4");
  EXPECT_CONTAINS(skip_reason("sparse", dense, 2), "needs d >= 3");
  EXPECT_EQ(skip_reason("sparse", dense, 8), "");
}

TEST(Eligibility, StructureGatedAlgorithms) {
  const GraphProbe two = probe_graph(disjoint_union(grid(3, 3), path(4)));
  EXPECT_CONTAINS(skip_reason("ert", two, 10), "not connected");
  const GraphProbe k5 = probe_graph(complete(5));
  EXPECT_EQ(skip_reason("sdr", k5, 5), "");
  EXPECT_CONTAINS(skip_reason("sdr", probe_graph(path(4)), 5),
                  "not a complete graph");
  EXPECT_CONTAINS(skip_reason("delta-list", probe_graph(path(4)), 5),
                  "max degree 2 < 3");
  // Algorithms with no structural requirement never skip.
  EXPECT_EQ(skip_reason("greedy", k5, -1), "");
  EXPECT_EQ(skip_reason("dsatur", two, -1), "");
}

// Every entry's auto-k (effective_k) and verdict, at auto-k, one below
// it (when that is above 2) and at 2, on five probed graphs; the
// entries that read a guarantee param also with that param. One line per
// (entry, params, graph): `name [params] graph: k=K "reason"; k=K "reason"`.
std::string eligibility_table() {
  const std::vector<std::pair<std::string, GraphProbe>> graphs = {
      {"grid4x4", probe_graph(grid(4, 4))},
      {"petersen", probe_graph(petersen())},
      {"K8", probe_graph(complete(8))},
      {"hex3x3", probe_graph(hex_patch(3, 3))},
      {"grid3x3+P4", probe_graph(disjoint_union(grid(3, 3), path(4)))}};
  const auto bag = [](std::int64_t arboricity, std::int64_t genus,
                      std::int64_t threshold, double eps) {
    ParamBag p;
    if (arboricity > 0) p.set_int("arboricity", arboricity);
    if (genus > 0) p.set_int("genus", genus);
    if (threshold > 0) p.set_int("threshold", threshold);
    if (eps > 0) p.set_real("eps", eps);
    return p;
  };
  const std::vector<std::tuple<std::string, std::string, ParamBag>> extra = {
      {"arboricity", "arboricity=3", bag(3, -1, -1, -1)},
      {"barenboim-elkin", "arboricity=3", bag(3, -1, -1, -1)},
      {"barenboim-elkin", "arboricity=2 eps=0.5", bag(2, -1, -1, 0.5)},
      {"genus", "genus=2", bag(-1, 2, -1, -1)},
      {"genus", "genus=3", bag(-1, 3, -1, -1)},
      {"genus-sharp", "genus=2", bag(-1, 2, -1, -1)},
      {"genus-sharp", "genus=3", bag(-1, 3, -1, -1)},
      {"gps", "threshold=4", bag(-1, -1, 4, -1)}};
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  std::string table;
  const auto rows = [&](const std::string& name, const std::string& label,
                        const ParamBag& params) {
    const AlgorithmInfo& info = registry.at(name);
    for (const auto& [graph, probe] : graphs) {
      const Vertex auto_k = effective_k(info, -1, probe.max_degree, params);
      table += name + " [" + label + "] " + graph + ":";
      std::vector<Vertex> ks = {auto_k};
      if (auto_k > 3) ks.push_back(auto_k - 1);
      ks.push_back(2);
      for (const Vertex k : ks) {
        table += " k=" + std::to_string(k) + " \"" +
                 algorithm_skip_reason(info,
                                       EligibilityQuery{&probe, &params, k}) +
                 "\";";
      }
      table += "\n";
    }
  };
  for (const std::string& name : registry.names()) {
    rows(name, "", ParamBag{});
    for (const auto& [algo, label, params] : extra)
      if (algo == name) rows(name, label, params);
  }
  return table;
}

// Pinned verdicts: the list sizes, premises and auto-k of every entry.
TEST(Eligibility, EveryEntryPinned) {
  EXPECT_EQ(eligibility_table(), R"pin(arboricity [] grid4x4: k=5 ""; k=4 ""; k=2 "needs arboricity >= 2 (param arboricity, or k = 2a)";
arboricity [] petersen: k=4 ""; k=3 "needs arboricity >= 2 (param arboricity, or k = 2a)"; k=2 "needs arboricity >= 2 (param arboricity, or k = 2a)";
arboricity [] K8: k=8 ""; k=7 "certified arboricity bound 4 > promised arboricity 3"; k=2 "needs arboricity >= 2 (param arboricity, or k = 2a)";
arboricity [] hex3x3: k=4 ""; k=3 "needs arboricity >= 2 (param arboricity, or k = 2a)"; k=2 "needs arboricity >= 2 (param arboricity, or k = 2a)";
arboricity [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "needs arboricity >= 2 (param arboricity, or k = 2a)";
arboricity [arboricity=3] grid4x4: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
arboricity [arboricity=3] petersen: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
arboricity [arboricity=3] K8: k=8 "certified arboricity bound 4 > promised arboricity 3"; k=7 "certified arboricity bound 4 > promised arboricity 3"; k=2 "certified arboricity bound 4 > promised arboricity 3";
arboricity [arboricity=3] hex3x3: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
arboricity [arboricity=3] grid3x3+P4: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
barenboim-elkin [] grid4x4: k=-1 "needs param arboricity=..."; k=2 "needs param arboricity=...";
barenboim-elkin [] petersen: k=-1 "needs param arboricity=..."; k=2 "needs param arboricity=...";
barenboim-elkin [] K8: k=-1 "needs param arboricity=..."; k=2 "needs param arboricity=...";
barenboim-elkin [] hex3x3: k=-1 "needs param arboricity=..."; k=2 "needs param arboricity=...";
barenboim-elkin [] grid3x3+P4: k=-1 "needs param arboricity=..."; k=2 "needs param arboricity=...";
barenboim-elkin [arboricity=3] grid4x4: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=3] petersen: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=3] K8: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=3] hex3x3: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=3] grid3x3+P4: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=2 eps=0.5] grid4x4: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=2 eps=0.5] petersen: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=2 eps=0.5] K8: k=-1 "degeneracy 7 > H-partition threshold 5"; k=2 "degeneracy 7 > H-partition threshold 5";
barenboim-elkin [arboricity=2 eps=0.5] hex3x3: k=-1 ""; k=2 "";
barenboim-elkin [arboricity=2 eps=0.5] grid3x3+P4: k=-1 ""; k=2 "";
degeneracy [] grid4x4: k=-1 ""; k=2 "";
degeneracy [] petersen: k=-1 ""; k=2 "";
degeneracy [] K8: k=-1 ""; k=2 "";
degeneracy [] hex3x3: k=-1 ""; k=2 "";
degeneracy [] grid3x3+P4: k=-1 ""; k=2 "";
degeneracy-list [] grid4x4: k=5 ""; k=4 ""; k=2 "needs k >= 3, got 2";
degeneracy-list [] petersen: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
degeneracy-list [] K8: k=8 ""; k=7 "needs k >= 8, got 7"; k=2 "needs k >= 8, got 2";
degeneracy-list [] hex3x3: k=4 ""; k=3 ""; k=2 "needs k >= 3, got 2";
degeneracy-list [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "needs k >= 3, got 2";
deglist-sparsified [] grid4x4: k=5 ""; k=4 ""; k=2 "needs k >= 3, got 2";
deglist-sparsified [] petersen: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
deglist-sparsified [] K8: k=8 ""; k=7 "needs k >= 8, got 7"; k=2 "needs k >= 8, got 2";
deglist-sparsified [] hex3x3: k=4 ""; k=3 ""; k=2 "needs k >= 3, got 2";
deglist-sparsified [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "needs k >= 3, got 2";
delta-list [] grid4x4: k=5 ""; k=4 ""; k=2 "needs k >= 4, got 2";
delta-list [] petersen: k=4 ""; k=3 ""; k=2 "needs k >= 3, got 2";
delta-list [] K8: k=8 ""; k=7 ""; k=2 "needs k >= 7, got 2";
delta-list [] hex3x3: k=4 ""; k=3 ""; k=2 "needs k >= 3, got 2";
delta-list [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "needs k >= 4, got 2";
dplus1-sparsified [] grid4x4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
dplus1-sparsified [] petersen: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
dplus1-sparsified [] K8: k=8 ""; k=7 "needs k >= 8, got 7"; k=2 "needs k >= 8, got 2";
dplus1-sparsified [] hex3x3: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
dplus1-sparsified [] grid3x3+P4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
dsatur [] grid4x4: k=-1 ""; k=2 "";
dsatur [] petersen: k=-1 ""; k=2 "";
dsatur [] K8: k=-1 ""; k=2 "";
dsatur [] hex3x3: k=-1 ""; k=2 "";
dsatur [] grid3x3+P4: k=-1 ""; k=2 "";
ert [] grid4x4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
ert [] petersen: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
ert [] K8: k=8 ""; k=7 "needs k >= 8, got 7"; k=2 "needs k >= 8, got 2";
ert [] hex3x3: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
ert [] grid3x3+P4: k=5 "not connected"; k=4 "not connected"; k=2 "not connected";
exact [] grid4x4: k=-1 "needs request.k (the palette to search)"; k=2 "";
exact [] petersen: k=-1 "needs request.k (the palette to search)"; k=2 "";
exact [] K8: k=-1 "needs request.k (the palette to search)"; k=2 "";
exact [] hex3x3: k=-1 "needs request.k (the palette to search)"; k=2 "";
exact [] grid3x3+P4: k=-1 "needs request.k (the palette to search)"; k=2 "";
exact-list [] grid4x4: k=5 ""; k=4 ""; k=2 "";
exact-list [] petersen: k=4 ""; k=3 ""; k=2 "";
exact-list [] K8: k=8 ""; k=7 ""; k=2 "";
exact-list [] hex3x3: k=4 ""; k=3 ""; k=2 "";
exact-list [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "";
genus [] grid4x4: k=5 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus [] petersen: k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=3 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus [] K8: k=8 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=7 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus [] hex3x3: k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=3 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus [] grid3x3+P4: k=5 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus [genus=2] grid4x4: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=2] petersen: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=2] K8: k=8 ""; k=7 ""; k=2 "needs k >= 7, got 2";
genus [genus=2] hex3x3: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=2] grid3x3+P4: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=3] grid4x4: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=3] petersen: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=3] K8: k=8 ""; k=7 ""; k=2 "needs k >= 7, got 2";
genus [genus=3] hex3x3: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus [genus=3] grid3x3+P4: k=7 ""; k=6 "needs k >= 7, got 6"; k=2 "needs k >= 7, got 2";
genus-sharp [] grid4x4: k=5 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus-sharp [] petersen: k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=3 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus-sharp [] K8: k=8 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=7 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus-sharp [] hex3x3: k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=3 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus-sharp [] grid3x3+P4: k=5 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=4 "needs param genus=... (>= 1); the probe cannot certify a genus promise"; k=2 "needs param genus=... (>= 1); the probe cannot certify a genus promise";
genus-sharp [genus=2] grid4x4: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
genus-sharp [genus=2] petersen: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
genus-sharp [genus=2] K8: k=8 ""; k=7 ""; k=2 "needs k >= 6, got 2";
genus-sharp [genus=2] hex3x3: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
genus-sharp [genus=2] grid3x3+P4: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
genus-sharp [genus=3] grid4x4: k=5 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=4 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=2 "genus 3 is not sharp (24*genus+1 must be a perfect square)";
genus-sharp [genus=3] petersen: k=4 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=3 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=2 "genus 3 is not sharp (24*genus+1 must be a perfect square)";
genus-sharp [genus=3] K8: k=8 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=7 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=2 "genus 3 is not sharp (24*genus+1 must be a perfect square)";
genus-sharp [genus=3] hex3x3: k=4 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=3 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=2 "genus 3 is not sharp (24*genus+1 must be a perfect square)";
genus-sharp [genus=3] grid3x3+P4: k=5 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=4 "genus 3 is not sharp (24*genus+1 must be a perfect square)"; k=2 "genus 3 is not sharp (24*genus+1 must be a perfect square)";
gps [] grid4x4: k=-1 ""; k=2 "degeneracy 2 > peel threshold 1";
gps [] petersen: k=-1 ""; k=2 "degeneracy 3 > peel threshold 1";
gps [] K8: k=-1 "degeneracy 7 > peel threshold 6"; k=2 "degeneracy 7 > peel threshold 1";
gps [] hex3x3: k=-1 ""; k=2 "degeneracy 2 > peel threshold 1";
gps [] grid3x3+P4: k=-1 ""; k=2 "degeneracy 2 > peel threshold 1";
gps [threshold=4] grid4x4: k=-1 ""; k=2 "";
gps [threshold=4] petersen: k=-1 ""; k=2 "";
gps [threshold=4] K8: k=-1 "degeneracy 7 > peel threshold 4"; k=2 "degeneracy 7 > peel threshold 4";
gps [threshold=4] hex3x3: k=-1 ""; k=2 "";
gps [threshold=4] grid3x3+P4: k=-1 ""; k=2 "";
greedy [] grid4x4: k=-1 ""; k=2 "";
greedy [] petersen: k=-1 ""; k=2 "";
greedy [] K8: k=-1 ""; k=2 "";
greedy [] hex3x3: k=-1 ""; k=2 "";
greedy [] grid3x3+P4: k=-1 ""; k=2 "";
linial [] grid4x4: k=-1 ""; k=2 "";
linial [] petersen: k=-1 ""; k=2 "";
linial [] K8: k=-1 ""; k=2 "";
linial [] hex3x3: k=-1 ""; k=2 "";
linial [] grid3x3+P4: k=-1 ""; k=2 "";
list-sparsified [] grid4x4: k=5 ""; k=4 ""; k=2 "";
list-sparsified [] petersen: k=4 ""; k=3 ""; k=2 "";
list-sparsified [] K8: k=8 ""; k=7 ""; k=2 "";
list-sparsified [] hex3x3: k=4 ""; k=3 ""; k=2 "";
list-sparsified [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "";
nice [] grid4x4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
nice [] petersen: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
nice [] K8: k=8 ""; k=7 "needs k >= 8, got 7"; k=2 "needs k >= 8, got 2";
nice [] hex3x3: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
nice [] grid3x3+P4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
planar3-girth6 [] grid4x4: k=5 "girth 4 < 6"; k=4 "girth 4 < 6"; k=2 "girth 4 < 6";
planar3-girth6 [] petersen: k=4 "not planar"; k=3 "not planar"; k=2 "not planar";
planar3-girth6 [] K8: k=8 "not planar"; k=7 "not planar"; k=2 "not planar";
planar3-girth6 [] hex3x3: k=4 ""; k=3 ""; k=2 "needs k >= 3, got 2";
planar3-girth6 [] grid3x3+P4: k=5 "girth 4 < 6"; k=4 "girth 4 < 6"; k=2 "girth 4 < 6";
planar4-trianglefree [] grid4x4: k=5 ""; k=4 ""; k=2 "needs k >= 4, got 2";
planar4-trianglefree [] petersen: k=4 "not planar"; k=3 "not planar"; k=2 "not planar";
planar4-trianglefree [] K8: k=8 "not planar"; k=7 "not planar"; k=2 "not planar";
planar4-trianglefree [] hex3x3: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
planar4-trianglefree [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "needs k >= 4, got 2";
planar6 [] grid4x4: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
planar6 [] petersen: k=6 "not planar"; k=5 "not planar"; k=2 "not planar";
planar6 [] K8: k=8 "not planar"; k=7 "not planar"; k=2 "not planar";
planar6 [] hex3x3: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
planar6 [] grid3x3+P4: k=6 ""; k=5 "needs k >= 6, got 5"; k=2 "needs k >= 6, got 2";
randomized [] grid4x4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
randomized [] petersen: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
randomized [] K8: k=8 ""; k=7 "needs k >= 8, got 7"; k=2 "needs k >= 8, got 2";
randomized [] hex3x3: k=4 ""; k=3 "needs k >= 4, got 3"; k=2 "needs k >= 4, got 2";
randomized [] grid3x3+P4: k=5 ""; k=4 "needs k >= 5, got 4"; k=2 "needs k >= 5, got 2";
sdr [] grid4x4: k=5 "not a complete graph"; k=4 "not a complete graph"; k=2 "not a complete graph";
sdr [] petersen: k=4 "not a complete graph"; k=3 "not a complete graph"; k=2 "not a complete graph";
sdr [] K8: k=8 ""; k=7 ""; k=2 "";
sdr [] hex3x3: k=4 "not a complete graph"; k=3 "not a complete graph"; k=2 "not a complete graph";
sdr [] grid3x3+P4: k=5 "not a complete graph"; k=4 "not a complete graph"; k=2 "not a complete graph";
sparse [] grid4x4: k=5 ""; k=4 ""; k=2 "needs d >= 3 (param d, or k), got 2";
sparse [] petersen: k=4 ""; k=3 ""; k=2 "needs d >= 3 (param d, or k), got 2";
sparse [] K8: k=8 ""; k=7 ""; k=2 "needs d >= 3 (param d, or k), got 2";
sparse [] hex3x3: k=4 ""; k=3 ""; k=2 "needs d >= 3 (param d, or k), got 2";
sparse [] grid3x3+P4: k=5 ""; k=4 ""; k=2 "needs d >= 3 (param d, or k), got 2";
)pin");
}

}  // namespace
}  // namespace scol

// Round-trip and adversarial coverage of the file readers/writers
// (src/scol/io/io.h), the structure probe (src/scol/io/probe.h), the
// "file" scenario, and the registry's structural preconditions.
//
// Every reader failure must carry a "name:line:column" position — the
// contract cataloged in docs/FORMATS.md — so each adversarial case
// asserts both the reason and the position of its error message.
#include <fstream>
#include <sstream>
#include <string>

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

}  // namespace
}  // namespace scol

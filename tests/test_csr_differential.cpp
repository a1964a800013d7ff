// CSR-vs-reference differential tests for the graph core.
//
// The CSR layout is now built by three production paths — from_edges
// (counting sort, duplicates rejected), GraphBuilder::build (counting
// sort, duplicates merged), and the zero-sort direct fill inside
// induce() — none of which go through a global edge sort anymore. Each is
// checked here against an independently computed reference (naive sorted
// adjacency sets), on random inputs: identical degree sequences, identical
// neighbor sets, and bit-identical end-to-end solve() reports no matter
// which path built the graph.
// The mmap parallel reader (io/parallel.cpp) is a fourth path into the
// same CSR: it must be bit-identical to the streaming reader — graph,
// ReadStats, and error messages — on every input, for every thread
// count. The differential suite at the bottom pins that contract on the
// bundled examples, on generated million-edge instances, and on
// malformed files. The METIS tail (row sort + transpose merge) is also
// checked against a global-sort + mirror-search oracle on seeded random
// files full of duplicates, one-sided listings and self-loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "proptest.h"
#include "scol/api/json.h"
#include "scol/gen/random.h"
#include "scol/gen/scale.h"
#include "scol/graph/graph.h"
#include "scol/io/io.h"

namespace scol {
namespace {

// Reference representation: per-vertex sorted neighbor sets built edge by
// edge, with none of the CSR machinery.
std::vector<std::set<Vertex>> reference_adjacency(
    Vertex n, const std::vector<Edge>& edges) {
  std::vector<std::set<Vertex>> adj(static_cast<std::size_t>(n));
  for (const auto& [u, v] : edges) {
    adj[static_cast<std::size_t>(u)].insert(v);
    adj[static_cast<std::size_t>(v)].insert(u);
  }
  return adj;
}

void expect_matches_reference(const Graph& g,
                              const std::vector<std::set<Vertex>>& ref) {
  ASSERT_EQ(static_cast<std::size_t>(g.num_vertices()), ref.size());
  std::int64_t ref_edges = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    const auto& rv = ref[static_cast<std::size_t>(v)];
    ref_edges += static_cast<std::int64_t>(rv.size());
    ASSERT_EQ(nb.size(), rv.size()) << "degree of " << v;
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end())) << "CSR list sorted";
    EXPECT_TRUE(std::equal(nb.begin(), nb.end(), rv.begin(), rv.end()))
        << "neighbor set of " << v;
    for (Vertex w : rv) EXPECT_TRUE(g.has_edge(v, w));
  }
  EXPECT_EQ(g.num_edges(), ref_edges / 2);
}

std::vector<Edge> random_edge_set(Vertex n, std::size_t target, Rng& rng) {
  std::set<Edge> edges;
  for (std::size_t t = 0; t < 3 * target; ++t) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    edges.insert({std::min(u, v), std::max(u, v)});
    if (edges.size() == target) break;
  }
  return {edges.begin(), edges.end()};
}

TEST(CsrDifferential, FromEdgesMatchesReference) {
  Rng rng(31001);
  for (int t = 0; t < 25; ++t) {
    const Vertex n = 1 + static_cast<Vertex>(rng.below(60));
    const std::vector<Edge> edges =
        random_edge_set(n, rng.below(3 * static_cast<std::uint64_t>(n)), rng);
    // Feed the edges in shuffled order with shuffled endpoint orientation:
    // the layout must not depend on either.
    std::vector<Edge> shuffled = edges;
    rng.shuffle(shuffled);
    for (auto& e : shuffled)
      if (rng.chance(0.5)) std::swap(e.first, e.second);
    expect_matches_reference(Graph::from_edges(n, shuffled),
                             reference_adjacency(n, edges));
  }
}

TEST(CsrDifferential, BuilderMergesDuplicatesToSameGraph) {
  Rng rng(31007);
  for (int t = 0; t < 25; ++t) {
    const Vertex n = 2 + static_cast<Vertex>(rng.below(50));
    const std::vector<Edge> edges =
        random_edge_set(n, rng.below(2 * static_cast<std::uint64_t>(n)), rng);
    GraphBuilder b(n);
    for (const auto& [u, v] : edges) {
      b.add_edge(u, v);
      // Duplicate a random prefix of edges, in both orientations.
      if (rng.chance(0.4)) b.add_edge(v, u);
    }
    const Graph via_builder = b.build();
    const Graph via_edges = Graph::from_edges(n, edges);
    expect_matches_reference(via_builder, reference_adjacency(n, edges));
    EXPECT_EQ(via_builder.edges(), via_edges.edges());
  }
}

TEST(CsrDifferential, InduceMatchesFilteredReference) {
  Rng rng(31013);
  for (int t = 0; t < 20; ++t) {
    const Vertex n = 10 + static_cast<Vertex>(rng.below(60));
    const Graph g = gnm(n, 2 * n, rng);
    std::vector<char> keep(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) keep[static_cast<std::size_t>(v)] = rng.chance(0.6);
    const InducedSubgraph sub = induce(g, keep);
    // Reference: filter the edge list by hand and relabel.
    std::vector<Edge> kept_edges;
    for (const auto& [u, v] : g.edges())
      if (keep[static_cast<std::size_t>(u)] && keep[static_cast<std::size_t>(v)])
        kept_edges.emplace_back(sub.to_induced[static_cast<std::size_t>(u)],
                                sub.to_induced[static_cast<std::size_t>(v)]);
    expect_matches_reference(
        sub.graph,
        reference_adjacency(sub.graph.num_vertices(), kept_edges));
    // Round-trip of the id maps.
    for (Vertex x = 0; x < sub.graph.num_vertices(); ++x)
      EXPECT_EQ(sub.to_induced[static_cast<std::size_t>(
                    sub.to_original[static_cast<std::size_t>(x)])],
                x);
  }
}

TEST(CsrDifferential, SolveReportsIdenticalAcrossBuildPaths) {
  // The same instance built through from_edges and through GraphBuilder
  // (with injected duplicates) must produce bit-identical solve() reports
  // for every eligible algorithm — the end-to-end guard that the layout
  // rewrite cannot leak into results.
  ParamBag params;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(31019 + seed);
    const proptest::Sample sample = proptest::random_graph(rng);
    const std::vector<Edge> edges = sample.graph.edges();
    const Graph via_edges =
        Graph::from_edges(sample.graph.num_vertices(), edges);
    GraphBuilder b(sample.graph.num_vertices());
    for (const auto& [u, v] : edges) {
      b.add_edge(u, v);
      if (rng.chance(0.3)) b.add_edge(v, u);  // merged duplicate
    }
    const Graph via_builder = b.build();

    const GraphProbe probe = probe_graph(via_edges);
    for (const auto& cell :
         proptest::eligible_cells(via_edges, params, probe)) {
      ColoringRequest ra = proptest::cell_request(cell, via_edges);
      ColoringRequest rb = proptest::cell_request(cell, via_builder);
      RunContext ctx_a, ctx_b;
      ColoringReport a = solve(ra, ctx_a);
      ColoringReport b = solve(rb, ctx_b);
      a.wall_ms = b.wall_ms = 0.0;  // the one nondeterministic field
      EXPECT_EQ(to_json(a, /*include_coloring=*/true).dump(),
                to_json(b, /*include_coloring=*/true).dump())
          << sample.description << ": " << cell.info->name;
    }
  }
}

// --- Parallel mmap reader vs streaming reader -----------------------------

const int kThreadCounts[] = {2, 3, 8};

void expect_identical_reads(const ReadResult& streaming,
                            const ReadResult& parallel,
                            const std::string& label) {
  ASSERT_EQ(streaming.graph.num_vertices(), parallel.graph.num_vertices())
      << label;
  ASSERT_EQ(streaming.graph.num_edges(), parallel.graph.num_edges())
      << label;
  EXPECT_EQ(streaming.graph.edges(), parallel.graph.edges()) << label;
  for (Vertex v = 0; v < streaming.graph.num_vertices(); ++v) {
    const auto a = streaming.graph.neighbors(v);
    const auto b = parallel.graph.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << label << ": neighbors of " << v;
  }
  const ReadStats& s = streaming.stats;
  const ReadStats& p = parallel.stats;
  EXPECT_EQ(s.format, p.format) << label;
  EXPECT_EQ(s.declared_n, p.declared_n) << label;
  EXPECT_EQ(s.declared_m, p.declared_m) << label;
  EXPECT_EQ(s.edge_records, p.edge_records) << label;
  EXPECT_EQ(s.duplicate_edges, p.duplicate_edges) << label;
  EXPECT_EQ(s.self_loops, p.self_loops) << label;
  EXPECT_EQ(s.asymmetric_edges, p.asymmetric_edges) << label;
  EXPECT_EQ(s.comment_lines, p.comment_lines) << label;
  EXPECT_EQ(s.zero_indexed, p.zero_indexed) << label;
}

void expect_thread_counts_agree(const std::string& path) {
  const ReadResult streaming = read_graph_file(path);
  for (const int threads : kThreadCounts) {
    ReadOptions options;
    options.threads = threads;
    expect_identical_reads(
        streaming, read_graph_file(path, GraphFormat::kAuto, options),
        path + " @ threads=" + std::to_string(threads));
  }
}

TEST(ParallelReader, BundledExamplesBitIdenticalAcrossThreadCounts) {
  // All four formats: .graph and .edges exercise the parallel path,
  // .col and .mtx its documented fallback to streaming.
  for (const char* name :
       {"grotzsch.col", "grid8x8.graph", "petersen.mtx", "heawood.edges"})
    expect_thread_counts_agree(std::string(SCOL_REPO_DIR) +
                               "/examples/graphs/" + name);
}

TEST(ParallelReader, MillionEdgeEdgeListBitIdentical) {
  // pref_attach leaves no isolated vertex, so it survives the edge-list
  // writer; ~1M edges spans many chunks at every thread count.
  Rng rng(902001);
  const Graph g = pref_attach(62500, 16, rng);
  ASSERT_GT(g.num_edges(), 990000);
  const std::string path = ::testing::TempDir() + "/scol_diff_big.edges";
  write_graph_file(path, g);
  expect_thread_counts_agree(path);
  const ReadResult r = read_graph_file(path);
  EXPECT_EQ(r.graph.edges(), g.edges());
  std::remove(path.c_str());
}

TEST(ParallelReader, RmatMetisRoundTripBitIdentical) {
  // RMAT has isolated vertices, which only the METIS round trip keeps;
  // the skewed degrees also make chunk workloads deliberately uneven.
  Rng rng(902011);
  const Graph g = rmat(15, 8, 0.57, 0.19, 0.19, rng);
  const std::string path = ::testing::TempDir() + "/scol_diff_rmat.graph";
  write_graph_file(path, g);
  expect_thread_counts_agree(path);
  const ReadResult r = read_graph_file(path);
  EXPECT_EQ(r.graph.edges(), g.edges());
  EXPECT_EQ(r.graph.num_vertices(), g.num_vertices());
  std::remove(path.c_str());
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// --- METIS tail vs the sort + binary-search oracle ------------------------

// What a METIS file's lists must resolve to, by a route independent of
// the reader's row-native tail: sort every directed (line vertex,
// neighbor) pair globally, count repeats as duplicates, and binary-search
// each distinct pair's mirror — a missing mirror is an asymmetric listing
// and the edge is kept either way.
struct MetisExpectation {
  std::vector<Edge> edges;
  std::int64_t duplicate_edges = 0;
  std::int64_t asymmetric_edges = 0;
  std::int64_t self_loops = 0;
  bool zero_indexed = false;
};

MetisExpectation metis_oracle(
    const std::vector<std::vector<std::int64_t>>& lines) {
  MetisExpectation out;
  for (const auto& line : lines)
    for (const std::int64_t id : line)
      if (id == 0) out.zero_indexed = true;
  const std::int64_t shift = out.zero_indexed ? 0 : 1;
  std::vector<Edge> directed;
  for (std::size_t u = 0; u < lines.size(); ++u)
    for (const std::int64_t id : lines[u]) {
      const auto v = static_cast<Vertex>(id - shift);
      if (v == static_cast<Vertex>(u))
        ++out.self_loops;
      else
        directed.emplace_back(static_cast<Vertex>(u), v);
    }
  std::sort(directed.begin(), directed.end());
  for (std::size_t i = 0; i < directed.size();) {
    std::size_t j = i;
    while (j < directed.size() && directed[j] == directed[i]) ++j;
    out.duplicate_edges += static_cast<std::int64_t>(j - i) - 1;
    const auto [u, v] = directed[i];
    const bool mirrored =
        std::binary_search(directed.begin(), directed.end(), Edge{v, u});
    if (!mirrored) ++out.asymmetric_edges;
    if (u < v)
      out.edges.emplace_back(u, v);
    else if (!mirrored)
      out.edges.emplace_back(v, u);
    i = j;
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

// A random METIS file with everything the tail must tolerate: unsorted
// lines, same-direction duplicates, one-sided listings, self-loops, blank
// lines (isolated vertices), % comments anywhere, odd whitespace, 0- or
// 1-based ids and optional edge weights. `lines` holds the raw neighbor
// ids of each adjacency line, for the oracle.
struct MetisCase {
  std::string text;
  std::vector<std::vector<std::int64_t>> lines;
};

MetisCase random_metis_case(Rng& rng) {
  const auto n = static_cast<Vertex>(
      1 + rng.below(rng.chance(0.1) ? 400 : 30));
  std::vector<std::vector<Vertex>> listed(static_cast<std::size_t>(n));
  const auto at = [&](Vertex v) -> std::vector<Vertex>& {
    return listed[static_cast<std::size_t>(v)];
  };
  const auto draw = [&] {
    return static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
  };
  const std::uint64_t pairs = rng.below(3 * static_cast<std::uint64_t>(n) + 1);
  for (std::uint64_t t = 0; t < pairs; ++t) {
    const Vertex u = draw();
    const Vertex v = draw();
    const double kind = rng.real();
    if (kind < 0.8 || u == v) at(u).push_back(v);
    if (kind < 0.7 || kind >= 0.8) at(v).push_back(u);
    if (rng.chance(0.1)) at(u).push_back(v);  // same-direction duplicate
  }
  for (Vertex v = 0; v < n; ++v)
    if (rng.chance(0.05)) at(v).push_back(v);
  std::size_t entries = 0;
  for (auto& line : listed) {
    rng.shuffle(line);
    entries += line.size();
  }
  // Entries must be 2m; pad an odd count with a self-loop on vertex 0.
  if (entries % 2 == 1) {
    at(0).push_back(0);
    ++entries;
  }

  const std::int64_t base = rng.chance(0.5) ? 0 : 1;
  const bool weighted = rng.chance(0.2);
  const char* const gaps[] = {" ", "  ", "\t", " \t "};
  const auto comment = [&](std::string& text) {
    if (rng.chance(0.1))
      text += "% comment " + std::to_string(rng.below(99)) + "\n";
  };
  MetisCase c;
  comment(c.text);
  c.text += std::to_string(n) + " " + std::to_string(entries / 2) +
            (weighted ? " 1" : "") + "\n";
  for (const auto& line : listed) {
    comment(c.text);
    std::vector<std::int64_t>& raw = c.lines.emplace_back();
    for (std::size_t i = 0; i < line.size(); ++i) {
      raw.push_back(line[i] + base);
      if (i > 0) c.text += gaps[rng.below(4)];
      c.text += std::to_string(raw.back());
      if (weighted) c.text += " " + std::to_string(1 + rng.below(9));
    }
    if (line.empty() && rng.chance(0.3)) c.text += "  ";
    c.text += "\n";
  }
  comment(c.text);
  return c;
}

TEST(MetisTail, MatchesSortAndSearchOracle) {
  Rng rng(903001);
  const std::string path =
      ::testing::TempDir() + "/scol_metis_tail_oracle.graph";
  for (int t = 0; t < 400; ++t) {
    const MetisCase c = random_metis_case(rng);
    write_text(path, c.text);
    const MetisExpectation want = metis_oracle(c.lines);
    for (const int threads : {1, 2, 4}) {
      ReadOptions options;
      options.threads = threads;
      const ReadResult r = read_graph_file(path, GraphFormat::kAuto, options);
      const std::string label =
          "case " + std::to_string(t) + " @ threads=" + std::to_string(threads);
      ASSERT_EQ(static_cast<std::size_t>(r.graph.num_vertices()),
                c.lines.size())
          << label;
      EXPECT_EQ(r.graph.edges(), want.edges) << label << "\n" << c.text;
      EXPECT_EQ(r.stats.duplicate_edges, want.duplicate_edges) << label;
      EXPECT_EQ(r.stats.asymmetric_edges, want.asymmetric_edges) << label;
      EXPECT_EQ(r.stats.self_loops, want.self_loops) << label;
      EXPECT_EQ(r.stats.zero_indexed, want.zero_indexed) << label;
    }
  }
  std::remove(path.c_str());
}

// Malformed inputs: the parallel reader must report the SAME error, with
// the same "name:line:col" position, as the streaming reader — including
// when the offending line is deep inside a late chunk.
void expect_same_error(const std::string& path) {
  std::string streaming_error;
  try {
    read_graph_file(path);
    FAIL() << path << ": expected a PreconditionError";
  } catch (const PreconditionError& e) {
    streaming_error = e.what();
  }
  for (const int threads : kThreadCounts) {
    ReadOptions options;
    options.threads = threads;
    try {
      read_graph_file(path, GraphFormat::kAuto, options);
      FAIL() << path << ": expected a PreconditionError @ threads="
             << threads;
    } catch (const PreconditionError& e) {
      EXPECT_EQ(streaming_error, std::string(e.what()))
          << path << " @ threads=" << threads;
    }
  }
}

TEST(ParallelReader, ErrorsMatchStreamingByteForByte) {
  const std::string dir = ::testing::TempDir();

  // Edge list: a bad token on a deep line.
  std::string text;
  for (int i = 0; i < 5000; ++i)
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  text += "17 banana\n";
  write_text(dir + "/scol_err_token.edges", text);
  expect_same_error(dir + "/scol_err_token.edges");

  // Edge list: a negative id near the end.
  text.resize(text.size() - 10);
  text += "\n3 -4\n";
  write_text(dir + "/scol_err_neg.edges", text);
  expect_same_error(dir + "/scol_err_neg.edges");

  // METIS: truncated body (file ends early).
  std::string metis = "6000 5999\n";
  for (int i = 0; i < 4000; ++i)
    metis += std::to_string(i == 0 ? 2 : i) + " " +
             std::to_string(i + 2) + "\n";
  write_text(dir + "/scol_err_trunc.graph", metis);
  expect_same_error(dir + "/scol_err_trunc.graph");

  // METIS: data after the declared adjacency lines.
  std::string overlong = "2 1\n2\n1\n7 8\n";
  write_text(dir + "/scol_err_overlong.graph", overlong);
  expect_same_error(dir + "/scol_err_overlong.graph");

  // METIS: a non-integer neighbor deep in the body.
  std::string bad = "5000 4999\n2\n";
  for (int i = 2; i <= 5000; ++i) {
    bad += std::to_string(i - 1);
    if (i < 5000) {
      bad += ' ';
      bad += std::to_string(i + 1);
    }
    if (i == 4321) bad += " pear";
    bad += "\n";
  }
  write_text(dir + "/scol_err_badnb.graph", bad);
  expect_same_error(dir + "/scol_err_badnb.graph");
}

}  // namespace
}  // namespace scol

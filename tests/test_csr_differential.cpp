// CSR-vs-reference differential tests for the graph core.
//
// The CSR layout is built by three production paths — from_edges
// (three linear passes, duplicates rejected), GraphBuilder::build (the
// same passes, duplicates merged), and the direct fill inside induce() —
// none of which sorts. Each is
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

// from_edges and the builder, with every edge repeated 1-3 times in
// random orientations, must both match the reference on `edges`.
void expect_both_builders_match(Vertex n, const std::vector<Edge>& edges,
                                Rng& rng, const std::string& label) {
  SCOPED_TRACE(label);
  const auto ref = reference_adjacency(n, edges);
  expect_matches_reference(Graph::from_edges(n, edges), ref);
  std::vector<Edge> repeated;
  for (const auto& [u, v] : edges) {
    const std::uint64_t copies = 1 + rng.below(3);
    for (std::uint64_t r = 0; r < copies; ++r)
      repeated.push_back(rng.chance(0.5) ? Edge{u, v} : Edge{v, u});
  }
  rng.shuffle(repeated);
  GraphBuilder b(n);
  for (const auto& [u, v] : repeated) b.add_edge(u, v);
  expect_matches_reference(b.build(), ref);
}

// The three passes of the CSR build split each row into lower and upper
// neighbours: inputs that load one side only, leave rows empty, or put
// every edge on the first or last vertex.
TEST(CsrDifferential, LowerUpperSplitShapesMatchReference) {
  Rng rng(31011);
  for (int t = 0; t < 20; ++t) {
    const Vertex n = 2 + static_cast<Vertex>(rng.below(60));
    std::vector<Edge> edges =
        random_edge_set(n, rng.below(3 * static_cast<std::uint64_t>(n)), rng);
    // Every pair given as (hi, lo).
    for (auto& [u, v] : edges) std::swap(u, v);
    expect_both_builders_match(n, edges, rng, "hi-lo n=" + std::to_string(n));
  }
  for (const Vertex n : {0, 1})
    expect_both_builders_match(n, {}, rng, "n=" + std::to_string(n));
  for (const Vertex n : {2, 3, 17, 64}) {
    // A hub on the first, a middle and the last vertex, joined to about
    // half the others: the rest stay isolated.
    for (const Vertex hub : {Vertex{0}, n / 2, n - 1}) {
      std::vector<Edge> star;
      for (Vertex v = 0; v < n; ++v)
        if (v != hub && (rng.chance(0.5) || star.empty()))
          star.push_back(rng.chance(0.5) ? Edge{hub, v} : Edge{v, hub});
      expect_both_builders_match(
          n, star, rng,
          "star n=" + std::to_string(n) + " hub=" + std::to_string(hub));
    }
    // Every edge at vertex 0, then every edge at vertex n - 1.
    std::vector<Edge> first, last;
    for (Vertex v = 1; v < n; ++v) {
      first.emplace_back(v, 0);
      last.emplace_back(n - 1 - v, n - 1);
    }
    rng.shuffle(first);
    rng.shuffle(last);
    expect_both_builders_match(n, first, rng,
                               "all at 0, n=" + std::to_string(n));
    expect_both_builders_match(n, last, rng,
                               "all at n-1, n=" + std::to_string(n));
  }
}

void expect_from_edges_error(Vertex n, const std::vector<Edge>& edges,
                             const std::string& text) {
  try {
    Graph::from_edges(n, edges);
    ADD_FAILURE() << "expected '" << text << "'";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    const std::string suffix = " — " + text;
    EXPECT_TRUE(what.size() >= suffix.size() &&
                what.compare(what.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
        << what;
  }
}

TEST(CsrDifferential, FromEdgesErrorTextsArePinned) {
  expect_from_edges_error(4, {{0, 1}, {2, 3}, {0, 1}}, "duplicate edge");
  expect_from_edges_error(4, {{0, 1}, {2, 3}, {1, 0}}, "duplicate edge");
  expect_from_edges_error(4, {{3, 2}, {2, 3}}, "duplicate edge");
  expect_from_edges_error(4, {{0, 1}, {2, 2}}, "self-loop");
  expect_from_edges_error(4, {{0, 4}}, "endpoint range");
  expect_from_edges_error(4, {{-1, 2}}, "endpoint range");
  expect_from_edges_error(0, {{0, 1}}, "endpoint range");
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
//
// With `fallbacks`, the file also exercises both ends of the plain-digit
// scan and of the tail's adopt check: ids spelled "+7", "007" and
// zero-padded to 18, 19 and 20 digits; \v, \f and mid-line \r separators
// and CRLF line ends; fmt 0, 1, 10 and 11; and, besides the random
// shape above, fully mirrored lists (the adopt path) and unions of
// directed cycles (every transposed degree matches, no row is mirrored).
struct MetisCase {
  std::string text;
  std::vector<std::vector<std::int64_t>> lines;
};

MetisCase random_metis_case(Rng& rng, bool fallbacks = false) {
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
  const std::uint64_t shape = fallbacks ? rng.below(3) : 0;
  if (shape == 0) {
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
  } else if (shape == 1) {
    for (std::uint64_t t = 0; t < pairs; ++t) {
      const Vertex u = draw();
      const Vertex v = draw();
      if (u == v) continue;
      at(u).push_back(v);
      at(v).push_back(u);
    }
    if (rng.chance(0.3)) at(draw()).push_back(draw());  // maybe a one-sided
  } else {
    for (std::uint64_t c = rng.below(4) + 1; c > 0; --c) {
      const Vertex len = static_cast<Vertex>(3 + rng.below(5));
      std::vector<Vertex> cycle;
      for (Vertex i = 0; i < len; ++i) cycle.push_back(draw());
      for (Vertex i = 0; i < len; ++i)
        at(cycle[static_cast<std::size_t>(i)])
            .push_back(cycle[static_cast<std::size_t>((i + 1) % len)]);
    }
  }
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
  const std::int64_t fmt =
      fallbacks ? std::vector<std::int64_t>{0, 0, 1, 10, 11}[rng.below(5)]
                : rng.chance(0.2) ? 1 : 0;
  const bool edge_weights = fmt % 10 == 1;
  const bool vertex_weight = fmt >= 10;
  const std::vector<std::string> gaps =
      fallbacks ? std::vector<std::string>{" ", "\t", "\v", "\f", "\r",
                                           " \r\t"}
                : std::vector<std::string>{" ", "  ", "\t", " \t "};
  const auto spell = [&](std::int64_t id) {
    const std::string digits = std::to_string(id);
    if (!fallbacks) return digits;
    const std::uint64_t how = rng.below(12);
    if (how == 0) return "+" + digits;
    if (how >= 1 && how <= 4) {
      const std::size_t width = std::vector<std::size_t>{3, 18, 19, 20}[how - 1];
      return std::string(width - std::min(width, digits.size()), '0') + digits;
    }
    return digits;
  };
  const auto comment = [&](std::string& text) {
    if (rng.chance(0.1))
      text += "% comment " + std::to_string(rng.below(99)) + "\n";
  };
  MetisCase c;
  comment(c.text);
  c.text += std::to_string(n) + " " + std::to_string(entries / 2) +
            (fmt != 0 ? " " + std::to_string(fmt) : "") + "\n";
  for (const auto& line : listed) {
    comment(c.text);
    std::vector<std::int64_t>& raw = c.lines.emplace_back();
    if (vertex_weight) c.text += std::to_string(1 + rng.below(9));
    for (std::size_t i = 0; i < line.size(); ++i) {
      raw.push_back(line[i] + base);
      if (i > 0 || vertex_weight) c.text += gaps[rng.below(gaps.size())];
      c.text += spell(raw.back());
      if (edge_weights) c.text += " " + std::to_string(1 + rng.below(9));
    }
    if (line.empty() && rng.chance(0.3)) c.text += "  ";
    c.text += fallbacks && rng.chance(0.2) ? "\r\n" : "\n";
  }
  comment(c.text);
  return c;
}

// Reads `c` at threads 1, 2 and 4 and checks each read against the
// sort + binary-search oracle.
void expect_matches_metis_oracle(const MetisCase& c, const std::string& path,
                                 const std::string& label) {
  write_text(path, c.text);
  const MetisExpectation want = metis_oracle(c.lines);
  for (const int threads : {1, 2, 4}) {
    ReadOptions options;
    options.threads = threads;
    const ReadResult r = read_graph_file(path, GraphFormat::kAuto, options);
    const std::string at = label + " @ threads=" + std::to_string(threads);
    ASSERT_EQ(static_cast<std::size_t>(r.graph.num_vertices()),
              c.lines.size())
        << at;
    EXPECT_EQ(r.graph.edges(), want.edges) << at << "\n" << c.text;
    EXPECT_EQ(r.stats.duplicate_edges, want.duplicate_edges) << at;
    EXPECT_EQ(r.stats.asymmetric_edges, want.asymmetric_edges) << at;
    EXPECT_EQ(r.stats.self_loops, want.self_loops) << at;
    EXPECT_EQ(r.stats.zero_indexed, want.zero_indexed) << at;
  }
}

TEST(MetisTail, MatchesSortAndSearchOracle) {
  Rng rng(903001);
  const std::string path =
      ::testing::TempDir() + "/scol_metis_tail_oracle.graph";
  for (int t = 0; t < 400; ++t)
    expect_matches_metis_oracle(random_metis_case(rng), path,
                                "case " + std::to_string(t));
  std::remove(path.c_str());
}

TEST(MetisTail, ScanFallbacksAndAdoptMatchTheOracle) {
  Rng rng(903033);
  const std::string path =
      ::testing::TempDir() + "/scol_metis_scan_oracle.graph";
  int mirrored = 0;
  for (int t = 0; t < 400; ++t) {
    const MetisCase c = random_metis_case(rng, /*fallbacks=*/true);
    mirrored += metis_oracle(c.lines).asymmetric_edges == 0;
    expect_matches_metis_oracle(c, path, "case " + std::to_string(t));
  }
  EXPECT_GT(mirrored, 100);  // the adopt path ran, not only the merge
  std::remove(path.c_str());
}

// Errors on lines the plain-digit scan declines come from the token path
// with the text and position it reports for any line; at every thread
// count, and whether the bad line is the first or a later one.
TEST(MetisTail, ScanDeclinedLinesKeepTheTokenPathErrors) {
  const std::string path = ::testing::TempDir() + "/scol_metis_scan_err.graph";
  const std::pair<std::string, std::string> cases[] = {
      {"3 2\n2\n1 4\n2\n",
       ":3:3: vertex id 4 out of range [0, 3] for 3 vertices"},
      {"3 2\n2\n1\t+7\n2\n",
       ":3:3: vertex id +7 out of range [0, 3] for 3 vertices"},
      {"3 2\n2\n1 99999999999999999999\n2\n",
       ":3:3: expected an integer neighbor id, got '99999999999999999999'"},
      {"3 2\n2\n1 18446744073709551618\n2\n",  // 2^64 + 2
       ":3:3: expected an integer neighbor id, got '18446744073709551618'"},
      {"3 2\n2\n1 0000000000000000000004\n2\n",
       ":3:3: vertex id 0000000000000000000004 out of range [0, 3] for 3 "
       "vertices"},
      {"3 2\n2\n1 -1\n2\n",
       ":3:3: vertex id -1 out of range [0, 3] for 3 vertices"},
      {"3 2\n2\n1\v3x\n2\n", ":3:3: expected an integer neighbor id, got '3x'"},
      {"3 2\n2\n1 +\n2\n", ":3:3: expected an integer neighbor id, got '+'"},
      {"3 2\n2\n0 3\n2\n",
       ":3:1: file mixes 0-based and 1-based neighbor ids (id 0 first seen on "
       "line 3, id 3 on line 3)"},
      {"3 2\n1\n0 2\n3\n",
       ":4:1: file mixes 0-based and 1-based neighbor ids (id 0 first seen on "
       "line 3, id 3 on line 4)"},
      {"3 2 10\n5 2\n5 1 3\n5\n",
       ":5:1: header declared 2 edges (4 adjacency entries; each edge appears "
       "twice) but the lists contain 3 entries"},
  };
  for (const auto& [text, want] : cases) {
    write_text(path, text);
    for (const int threads : {1, 2, 4}) {
      ReadOptions options;
      options.threads = threads;
      try {
        read_graph_file(path, GraphFormat::kMetis, options);
        ADD_FAILURE() << text << " @ threads=" << threads << ": no error";
      } catch (const PreconditionError& e) {
        EXPECT_EQ(std::string(e.what()), path + want)
            << " @ threads=" << threads;
      }
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

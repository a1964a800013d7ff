// Internal parsing core shared by the streaming reader (io.cpp) and the
// mmap parallel reader (parallel.cpp).
//
// Everything here is templated on a *context* type `Ctx` that supplies
// the error-position state:
//
//   struct Ctx {
//     std::size_t lineno;                               // 1-based
//     [[noreturn]] void fail(std::size_t col, const std::string& what);
//   };
//
// The streaming LineReader throws a PreconditionError directly; the
// parallel reader's chunk context throws a lightweight ChunkError that
// the merge step converts into the identical PreconditionError for the
// earliest (line, col) across all chunks. Because both readers run the
// SAME token, number, and line parsers, a given input line produces a
// byte-identical error message either way — the property the
// differential and fuzz tests (test_csr_differential.cpp,
// test_io_fuzz.cpp) pin.
//
// Not installed; include only from within src/scol/io/.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "scol/graph/graph.h"
#include "scol/io/io.h"
#include "scol/util/check.h"

namespace scol {
namespace io_detail {

// --- Position-carrying errors. -------------------------------------------
//
// Every reader failure goes through fail_at so the message always looks
// like "name:line:col: what" — the contract docs/FORMATS.md catalogs and
// tests/test_io.cpp asserts. Lines and columns are 1-based; column 1 with
// line 0 means "before the first line" (an empty file).

[[noreturn]] inline void fail_at(const std::string& name, std::size_t line,
                                 std::size_t col, const std::string& what) {
  throw PreconditionError(name + ":" + std::to_string(line) + ":" +
                          std::to_string(col) + ": " + what);
}

// One whitespace-separated token and where it started (1-based column).
// `text` views into the line buffer, so tokens are only valid while the
// line they were cut from is alive — both readers consume a line's
// tokens before fetching the next line.
struct Token {
  std::string_view text;
  std::size_t col = 0;
};

inline std::string str(std::string_view sv) { return std::string(sv); }

// Splits `line` into tokens, reusing `out` (hot loops keep one buffer
// per reader instead of allocating a vector per line).
inline void tokenize(std::string_view line, std::vector<Token>& out) {
  out.clear();
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
}

template <class Ctx>
std::int64_t parse_int64(const Ctx& r, const Token& tok, const char* what) {
  std::string_view sv = tok.text;
  // strtoll tolerance: an explicit leading '+' on a digit is accepted.
  if (sv.size() >= 2 && sv[0] == '+' &&
      std::isdigit(static_cast<unsigned char>(sv[1])))
    sv.remove_prefix(1);
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(sv.data(), sv.data() + sv.size(), v);
  if (ec != std::errc() || end != sv.data() + sv.size() || sv.empty())
    r.fail(tok.col, std::string("expected an integer ") + what + ", got '" +
                        str(tok.text) + "'");
  return v;
}

// Weights are validated (a stray word is a malformed file) but never
// used, so any numeric token -- "3", "0.5", "1e-3" -- is acceptable.
template <class Ctx>
void parse_numeric(const Ctx& r, const Token& tok, const char* what) {
  const std::string text = str(tok.text);
  char* end = nullptr;
  (void)std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty())
    r.fail(tok.col, std::string("expected a numeric ") + what + ", got '" +
                        str(tok.text) + "'");
}

template <class Ctx>
std::int64_t parse_count(const Ctx& r, const Token& tok, const char* what) {
  const std::int64_t v = parse_int64(r, tok, what);
  if (v < 0)
    r.fail(tok.col, std::string(what) + " must be non-negative, got '" +
                        str(tok.text) + "'");
  return v;
}

// Vertex ids are 32-bit by design (Vertex = int32); counts up to that
// limit build — CSR offsets are 64-bit throughout, so the EDGE count is
// unconstrained — but a declared vertex count past it cannot be
// represented and must fail loudly, not wrap into a small wrong graph.
template <class Ctx>
std::int64_t parse_vertex_count(const Ctx& r, const Token& tok) {
  const std::int64_t v = parse_count(r, tok, "vertex count");
  if (v > std::numeric_limits<Vertex>::max())
    r.fail(tok.col,
           "vertex count " + str(tok.text) +
               " exceeds the 32-bit vertex-id limit of " +
               std::to_string(std::numeric_limits<Vertex>::max()) +
               " (edge offsets are 64-bit; counts up to the limit build)");
  return v;
}

// Declared edge counts feed `2 * m` adjacency-entry arithmetic; cap them
// so that arithmetic cannot overflow 64 bits (the cap itself is far past
// anything addressable).
inline constexpr std::int64_t kMaxDeclaredEdges =
    std::numeric_limits<std::int64_t>::max() / 2;

template <class Ctx>
std::int64_t parse_edge_count(const Ctx& r, const Token& tok) {
  const std::int64_t v = parse_count(r, tok, "edge count");
  if (v > kMaxDeclaredEdges)
    r.fail(tok.col, "edge count " + str(tok.text) +
                        " exceeds the supported maximum of " +
                        std::to_string(kMaxDeclaredEdges));
  return v;
}

// --- Shared edge accumulation. -------------------------------------------
//
// Formats with a declared vertex count (DIMACS, METIS, Matrix Market)
// collect raw ids first and resolve 0- vs 1-based indexing once the whole
// file is seen: a file is 0-based iff it uses id 0, 1-based iff it uses
// id n. Using both is unresolvable and is reported with the lines where
// each extreme first appeared. Self-loops and duplicate edges are
// dropped and counted, never errors — real benchmark files contain both.
//
// The parallel reader runs one accumulator per chunk (lineno in the
// context is already global, so the recorded first_zero/first_n lines
// merge by plain min) and concatenates the edge vectors in chunk order,
// which reproduces the streaming accumulator state exactly.
struct EdgeAccumulator {
  std::int64_t n = 0;
  std::vector<Edge> edges;          // raw, pre-index-resolution
  std::int64_t self_loops = 0;
  std::size_t first_zero_line = 0;  // line where id 0 first appeared
  std::size_t first_n_line = 0;     // line where id n first appeared

  // `lo` is the smallest id this format ever allows (0 for the
  // auto-detecting formats, 1 for Matrix Market which is firmly 1-based).
  template <class Ctx>
  void add(const Ctx& r, const Token& ut, const Token& vt, std::int64_t lo) {
    const std::int64_t u = parse_int64(r, ut, "vertex id");
    const std::int64_t v = parse_int64(r, vt, "vertex id");
    check_range(r, u, ut, lo);
    check_range(r, v, vt, lo);
    edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }

  template <class Ctx>
  void check_range(const Ctx& r, std::int64_t id, const Token& tok,
                   std::int64_t lo) {
    if (id < lo || id > n)
      r.fail(tok.col, "vertex id " + str(tok.text) + " out of range [" +
                          std::to_string(lo) + ", " + std::to_string(n) +
                          "] for " + std::to_string(n) + " vertices");
    if (id == 0 && first_zero_line == 0) first_zero_line = r.lineno;
    if (id == n && first_n_line == 0) first_n_line = r.lineno;
  }

  // Decides indexing, shifts, dedups, builds. Fills stats.
  Graph finish(const std::string& name, ReadStats& stats) {
    bool zero_based = first_zero_line != 0;
    if (zero_based && first_n_line != 0)
      fail_at(name, first_n_line, 1,
              "file mixes 0-based and 1-based vertex ids (id 0 first seen "
              "on line " +
                  std::to_string(first_zero_line) + ", id " +
                  std::to_string(n) + " on line " +
                  std::to_string(first_n_line) + ")");
    stats.zero_indexed = zero_based;
    const Vertex shift = zero_based ? 0 : 1;
    // Shift straight into the builder (add_edge normalizes orientation);
    // it merges duplicates during its counting-sort CSR fill, so the
    // merged count is the duplicate tally — no intermediate edge vector,
    // no global sort.
    GraphBuilder b(static_cast<Vertex>(n));
    b.reserve(edges.size());
    std::int64_t kept = 0;
    for (auto [u, v] : edges) {
      u = static_cast<Vertex>(u - shift);
      v = static_cast<Vertex>(v - shift);
      if (u == v) {
        ++self_loops;
        continue;
      }
      b.add_edge(u, v);
      ++kept;
    }
    Graph g = b.build();
    stats.duplicate_edges = kept - g.num_edges();
    stats.self_loops = self_loops;
    return g;
  }
};

// --- METIS header and adjacency-line core. -------------------------------

struct MetisHeader {
  std::int64_t n = 0;
  std::int64_t declared_m = 0;
  std::int64_t fmt = 0;
  std::int64_t ncon = 0;
  bool edge_weights = false;
  bool vertex_weights = false;
  bool vertex_sizes = false;
};

// Validates the "<n> <m> [fmt [ncon]]" header tokens (leading comments
// already skipped by the caller).
template <class Ctx>
MetisHeader parse_metis_header_tokens(const Ctx& r,
                                      const std::vector<Token>& header) {
  if (header.size() < 2 || header.size() > 4)
    r.fail(header[0].col,
           "header must be '<vertices> <edges> [fmt [ncon]]', got " +
               std::to_string(header.size()) + " token(s)");
  MetisHeader h;
  h.n = parse_vertex_count(r, header[0]);
  h.declared_m = parse_edge_count(r, header[1]);
  if (header.size() >= 3) h.fmt = parse_count(r, header[2], "fmt code");
  if (h.fmt != 0 && h.fmt != 1 && h.fmt != 10 && h.fmt != 11 &&
      h.fmt != 100 && h.fmt != 101 && h.fmt != 110 && h.fmt != 111)
    r.fail(header[2].col, "fmt code must be a 3-digit binary flag "
                          "(000..111), got '" + str(header[2].text) + "'");
  h.edge_weights = h.fmt % 10 != 0;
  h.vertex_weights = (h.fmt / 10) % 10 != 0;
  h.vertex_sizes = (h.fmt / 100) % 10 != 0;
  h.ncon = h.vertex_weights ? 1 : 0;
  if (header.size() == 4) {
    h.ncon = parse_count(r, header[3], "ncon");
    if (!h.vertex_weights && h.ncon != 0)
      r.fail(header[3].col, "ncon given but fmt declares no vertex weights");
  }
  return h;
}

// Parses one adjacency line for `vertex` (0-based line index): skips the
// declared weight tokens, range-checks every neighbor id, and records
// (vertex, raw neighbor) pairs in `acc`. Returns the number of adjacency
// entries consumed.
template <class Ctx>
std::int64_t parse_metis_line(const Ctx& r, const std::vector<Token>& toks,
                              const MetisHeader& h, Vertex vertex,
                              EdgeAccumulator& acc) {
  std::size_t i = 0;
  if (h.vertex_sizes) ++i;                         // skip the size token
  i += static_cast<std::size_t>(h.ncon);           // skip vertex weights
  if (i > toks.size())
    r.fail(1, "adjacency line has " + std::to_string(toks.size()) +
                  " token(s) but fmt=" + std::to_string(h.fmt) +
                  " requires " + std::to_string(i) +
                  " leading weight token(s)");
  const std::size_t step = h.edge_weights ? 2 : 1;
  if (h.edge_weights && (toks.size() - i) % 2 != 0)
    r.fail(toks.back().col, "fmt declares edge weights but a neighbor id "
                            "has no weight token after it");
  std::int64_t entries = 0;
  // The other endpoint is the line index, so indexing resolution must
  // treat both the same way. METIS ids are canonically 1-based; we defer
  // like DIMACS and shift the neighbor ids in finish_metis.
  for (; i < toks.size(); i += step) {
    const std::int64_t w = parse_int64(r, toks[i], "neighbor id");
    acc.check_range(r, w, toks[i], 0);
    acc.edges.emplace_back(vertex, static_cast<Vertex>(w));
    ++entries;
  }
  return entries;
}

// METIS tail: resolves neighbor-id indexing, then builds the CSR row by
// row with no global sort. `acc.edges` holds (0-based line vertex, raw
// neighbor) pairs in file order — both readers emit the lines in vertex
// order — so the listed row R_u of each line vertex u is one contiguous
// run. Each R_u is sorted and its self-loops and same-direction
// duplicates dropped and counted; a counting-sort transpose over the rows
// in vertex order yields T_u (the vertices whose lines list u) already
// sorted; row u of the graph is the merged union of R_u and T_u. An
// undirected edge must be listed once from EACH endpoint, so every v in
// R_u \ T_u is an asymmetric (unmirrored) listing — tolerated and
// counted, never silent. O(n + entries + sum deg log deg).
inline Graph finish_metis(const std::string& name,
                          const EdgeAccumulator& acc, ReadStats& stats) {
  // Resolve indexing on the neighbor ids only (the first element of each
  // stored pair is the 0-based line index): 1-based unless some neighbor
  // is 0.
  const bool zero_based = acc.first_zero_line != 0;
  if (zero_based && acc.first_n_line != 0)
    fail_at(name, acc.first_n_line, 1,
            "file mixes 0-based and 1-based neighbor ids (id 0 first seen "
            "on line " + std::to_string(acc.first_zero_line) + ", id " +
                std::to_string(acc.n) + " on line " +
                std::to_string(acc.first_n_line) + ")");
  stats.zero_indexed = zero_based;
  const Vertex shift = zero_based ? 0 : 1;
  const std::size_t n = static_cast<std::size_t>(acc.n);

  // Listed rows: offsets from one count pass, neighbors shifted to 0-based.
  std::vector<std::size_t> row(n + 1, 0);
  for (const auto& e : acc.edges) ++row[static_cast<std::size_t>(e.first) + 1];
  for (std::size_t u = 0; u < n; ++u) row[u + 1] += row[u];
  std::vector<Vertex> listed(acc.edges.size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    SCOL_DCHECK(i == 0 || acc.edges[i - 1].first <= acc.edges[i].first,
                + "METIS entries grouped by line vertex");
    listed[i] = static_cast<Vertex>(acc.edges[i].second - shift);
  }

  // Sort each row; compact away self-loops and duplicates.
  std::int64_t self_loops = 0;
  std::size_t write = 0;
  std::size_t end = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t begin = end;
    end = row[u + 1];
    std::sort(listed.data() + begin, listed.data() + end);
    for (std::size_t i = begin; i < end; ++i) {
      const Vertex v = listed[i];
      if (v == static_cast<Vertex>(u))
        ++self_loops;
      else if (write > row[u] && listed[write - 1] == v)
        ++stats.duplicate_edges;
      else
        listed[write++] = v;
    }
    row[u + 1] = write;
  }
  listed.resize(write);

  // Transpose: filling in row order leaves every T_u sorted.
  std::vector<std::size_t> trow(n + 1, 0);
  for (const Vertex v : listed) ++trow[static_cast<std::size_t>(v) + 1];
  for (std::size_t u = 0; u < n; ++u) trow[u + 1] += trow[u];
  std::vector<Vertex> listers(listed.size());
  {
    std::vector<std::size_t> cursor(trow.begin(), trow.end() - 1);
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t i = row[u]; i < row[u + 1]; ++i)
        listers[cursor[static_cast<std::size_t>(listed[i])]++] =
            static_cast<Vertex>(u);
  }

  // Row u of the graph: the sorted union of R_u and T_u.
  std::vector<std::int64_t> offsets(n + 1, 0);
  std::vector<Vertex> adj;
  adj.reserve(listed.size());
  for (std::size_t u = 0; u < n; ++u) {
    std::size_t i = row[u];
    std::size_t j = trow[u];
    while (i < row[u + 1] || j < trow[u + 1]) {
      if (j == trow[u + 1] || (i < row[u + 1] && listed[i] < listers[j])) {
        adj.push_back(listed[i++]);
        ++stats.asymmetric_edges;
      } else if (i == row[u + 1] || listers[j] < listed[i]) {
        adj.push_back(listers[j++]);
      } else {
        adj.push_back(listed[i++]);
        ++j;
      }
    }
    offsets[u + 1] = static_cast<std::int64_t>(adj.size());
  }
  stats.self_loops = self_loops;
  return Graph::from_csr(static_cast<Vertex>(n), std::move(offsets),
                         std::move(adj));
}

// --- Edge-list line core and tail. ---------------------------------------

// Parses one non-comment, non-blank edge-list line into `raw` (normalized
// min/max id pairs; self-loops counted and dropped).
template <class Ctx>
void parse_edge_list_line(
    const Ctx& r, const std::vector<Token>& toks,
    std::vector<std::pair<std::int64_t, std::int64_t>>& raw,
    std::int64_t& edge_records, std::int64_t& self_loops) {
  if (toks.size() != 2 && toks.size() != 3)
    r.fail(toks[0].col, "edge line must be '<u> <v>' (an optional third "
                        "token is ignored as a weight), got " +
                            std::to_string(toks.size()) + " token(s)");
  const std::int64_t u = parse_int64(r, toks[0], "vertex id");
  const std::int64_t v = parse_int64(r, toks[1], "vertex id");
  if (u < 0 || v < 0)
    r.fail(toks[u < 0 ? 0 : 1].col, "vertex ids must be non-negative, "
                                    "got '" +
                                        str((u < 0 ? toks[0] : toks[1]).text) +
                                        "'");
  if (toks.size() == 3)
    parse_numeric(r, toks[2], "edge weight");  // validated, ignored
  ++edge_records;
  if (u == v) {
    ++self_loops;
    return;
  }
  raw.emplace_back(std::min(u, v), std::max(u, v));
}

// Edge-list tail: dense relabeling of the distinct raw ids in sorted
// order, then the dedup build. `eof_line` is the 1-based line number one
// past the last line (where streaming fail_eof reports file-level
// errors).
inline Graph finish_edge_list(
    const std::string& name, std::size_t eof_line,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& raw,
    std::int64_t self_loops, ReadStats& stats) {
  // Dense relabeling in sorted id order (deterministic, id-monotone).
  std::vector<std::int64_t> ids;
  ids.reserve(raw.size() * 2);
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (static_cast<std::int64_t>(ids.size()) >
      std::numeric_limits<Vertex>::max())
    fail_at(name, eof_line, 1,
            "file names " + std::to_string(ids.size()) +
                " distinct vertices, more than the 32-bit vertex-id limit "
                "of " +
                std::to_string(std::numeric_limits<Vertex>::max()));
  const auto dense = [&](std::int64_t id) {
    return static_cast<Vertex>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  GraphBuilder b(static_cast<Vertex>(ids.size()));
  b.reserve(raw.size());
  for (const auto& [u, v] : raw) b.add_edge(dense(u), dense(v));
  Graph g = b.build();  // merges duplicates in the counting-sort fill
  stats.duplicate_edges =
      static_cast<std::int64_t>(raw.size()) - g.num_edges();
  stats.self_loops = self_loops;
  stats.zero_indexed = !ids.empty() && ids.front() == 0;
  return g;
}

// --- Parallel reader entry point (parallel.cpp). -------------------------

/// Attempts the mmap chunk-parallel read of `path` (format must be
/// kEdgeList or kMetis). Returns false — leaving `out` untouched — when
/// the file cannot be mapped (unsupported platform, empty file, special
/// file); the caller then falls back to streaming. Parse errors throw
/// the same PreconditionError the streaming reader would.
bool try_read_file_parallel(const std::string& path, GraphFormat format,
                            int threads, ReadResult& out);

}  // namespace io_detail
}  // namespace scol

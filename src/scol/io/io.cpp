#include "scol/io/io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "scol/io/reader_detail.h"
#include "scol/util/check.h"

namespace scol {
namespace {

using io_detail::EdgeAccumulator;
using io_detail::Token;
using io_detail::fail_at;
using io_detail::str;

// Line-buffered single-pass reader: getline + CRLF stripping + the
// position state every error message needs. Satisfies the io_detail
// context contract (lineno + fail), so every parse helper in
// reader_detail.h works on it unchanged.
struct LineReader {
  std::istream& in;
  const std::string& name;
  std::string line = {};
  std::size_t lineno = 0;
  std::vector<Token> toks = {};  // reused per line by tokenize()

  bool next() {
    if (!std::getline(in, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    ++lineno;
    return true;
  }

  // Tokenizes the current line into the reused buffer.
  const std::vector<Token>& tokens() {
    io_detail::tokenize(line, toks);
    return toks;
  }

  [[noreturn]] void fail(std::size_t col, const std::string& what) const {
    fail_at(name, lineno, col, what);
  }
  [[noreturn]] void fail_eof(const std::string& what) const {
    fail_at(name, lineno + 1, 1, what);
  }
};

// Bytes from the stream's position to its end, or -1 when the stream
// cannot tell (a pipe): bounds the METIS reader's reserve.
std::int64_t bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here < 0) return -1;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return end < here ? -1 : static_cast<std::int64_t>(end - here);
}

// --- DIMACS .col ----------------------------------------------------------

ReadResult read_dimacs(LineReader& r) {
  ReadResult out;
  out.stats.format = GraphFormat::kDimacs;
  EdgeAccumulator acc;
  bool have_problem = false;
  std::int64_t declared_m = 0;

  while (r.next()) {
    if (r.line.empty()) continue;
    const std::vector<Token>& toks = r.tokens();
    if (toks.empty()) continue;
    const std::string_view kind = toks[0].text;
    if (kind == "c") {
      ++out.stats.comment_lines;
    } else if (kind == "p") {
      if (have_problem)
        r.fail(toks[0].col, "second 'p' problem line (first on an earlier "
                            "line); a DIMACS file has exactly one");
      if (toks.size() != 4)
        r.fail(toks[0].col,
               "problem line must be 'p edge <vertices> <edges>', got " +
                   std::to_string(toks.size()) + " token(s)");
      if (toks[1].text != "edge" && toks[1].text != "edges" &&
          toks[1].text != "col")
        r.fail(toks[1].col, "unknown problem type '" + str(toks[1].text) +
                                "' (expected 'edge')");
      acc.n = io_detail::parse_vertex_count(r, toks[2]);
      declared_m = io_detail::parse_edge_count(r, toks[3]);
      have_problem = true;
    } else if (kind == "e") {
      if (!have_problem)
        r.fail(toks[0].col, "edge line before the 'p' problem line");
      if (toks.size() != 3)
        r.fail(toks[0].col, "edge line must be 'e <u> <v>', got " +
                                std::to_string(toks.size()) + " token(s)");
      acc.add(r, toks[1], toks[2], 0);
    } else {
      r.fail(toks[0].col, "unknown DIMACS line type '" + str(kind) +
                              "' (expected 'c', 'p', or 'e')");
    }
  }
  if (!have_problem)
    r.fail_eof("file ends without a 'p edge <vertices> <edges>' line");
  out.stats.declared_n = acc.n;
  out.stats.declared_m = declared_m;
  out.stats.edge_records = static_cast<std::int64_t>(acc.edges.size());
  if (out.stats.edge_records != declared_m)
    r.fail_eof("problem line declared " + std::to_string(declared_m) +
               " edges but the file contains " +
               std::to_string(out.stats.edge_records) + " 'e' lines");
  out.graph = acc.finish(r.name, out.stats);
  return out;
}

// --- METIS / Chaco adjacency ---------------------------------------------

ReadResult read_metis(LineReader& r) {
  ReadResult out;
  out.stats.format = GraphFormat::kMetis;
  // Header: "<n> <m> [fmt [ncon]]" after any leading % comments.
  std::vector<Token> header;
  while (r.next()) {
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    header = r.tokens();
    if (!header.empty()) break;
  }
  if (header.empty())
    r.fail_eof("file ends before the '<vertices> <edges> [fmt]' header");
  const io_detail::MetisHeader h =
      io_detail::parse_metis_header_tokens(r, header);
  io_detail::MetisRows rows;
  rows.n = h.n;
  rows.reserve(h, bytes_left(r.in));

  // One adjacency line per vertex (blank = isolated); % comments anywhere.
  std::int64_t vertex = 0;
  while (vertex < h.n) {
    if (!r.next())
      r.fail_eof("file ends after " + std::to_string(vertex) +
                 " of the " + std::to_string(h.n) +
                 " declared adjacency lines");
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    io_detail::parse_metis_line(r, r.line, r.toks, h, rows);
    ++vertex;
  }
  while (r.next()) {
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    if (!r.tokens().empty())
      r.fail(1, "data after the last of the " + std::to_string(h.n) +
                    " declared adjacency lines");
  }
  const auto entries = static_cast<std::int64_t>(rows.adj.size());
  if (entries != 2 * h.declared_m)
    r.fail_eof("header declared " + std::to_string(h.declared_m) +
               " edges (" + std::to_string(2 * h.declared_m) +
               " adjacency entries; each edge appears twice) but the "
               "lists contain " + std::to_string(entries) + " entries");
  out.stats.declared_n = h.n;
  out.stats.declared_m = h.declared_m;
  out.stats.edge_records = entries;
  out.graph = io_detail::finish_metis(r.name, std::move(rows), out.stats);
  return out;
}

// --- Matrix Market coordinate --------------------------------------------

ReadResult read_matrix_market(LineReader& r) {
  ReadResult out;
  out.stats.format = GraphFormat::kMatrixMarket;
  if (!r.next()) r.fail_eof("empty file (expected a %%MatrixMarket header)");
  std::vector<Token> head = r.tokens();
  if (head.empty() || head[0].text != "%%MatrixMarket")
    r.fail(1, "first line must start with '%%MatrixMarket', got '" +
                  (head.empty() ? std::string() : str(head[0].text)) + "'");
  if (head.size() != 5)
    r.fail(head[0].col,
           "header must be '%%MatrixMarket matrix coordinate <field> "
           "<symmetry>', got " + std::to_string(head.size()) + " token(s)");
  auto lower = [](std::string_view sv) {
    std::string s(sv);
    for (char& c : s) c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    return s;
  };
  if (lower(head[1].text) != "matrix")
    r.fail(head[1].col, "unsupported object '" + str(head[1].text) +
                            "' (only 'matrix')");
  if (lower(head[2].text) != "coordinate")
    r.fail(head[2].col, "unsupported format '" + str(head[2].text) +
                            "' (only sparse 'coordinate'; dense 'array' "
                            "matrices are not graphs)");
  const std::string field = lower(head[3].text);
  std::size_t value_tokens = 0;
  if (field == "pattern") value_tokens = 0;
  else if (field == "real" || field == "integer" || field == "double")
    value_tokens = 1;
  else if (field == "complex") value_tokens = 2;
  else
    r.fail(head[3].col, "unknown field '" + str(head[3].text) +
                            "' (expected pattern, real, integer, or "
                            "complex)");
  const std::string symmetry = lower(head[4].text);
  if (symmetry != "general" && symmetry != "symmetric" &&
      symmetry != "skew-symmetric" && symmetry != "hermitian")
    r.fail(head[4].col, "unknown symmetry '" + str(head[4].text) +
                            "' (expected general, symmetric, "
                            "skew-symmetric, or hermitian)");

  // Size line after % comments.
  std::vector<Token> size;
  while (r.next()) {
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    size = r.tokens();
    if (!size.empty()) break;
  }
  if (size.empty())
    r.fail_eof("file ends before the '<rows> <cols> <entries>' size line");
  if (size.size() != 3)
    r.fail(size[0].col, "size line must be '<rows> <cols> <entries>', got " +
                            std::to_string(size.size()) + " token(s)");
  const std::int64_t rows = io_detail::parse_vertex_count(r, size[0]);
  const std::int64_t cols = io_detail::parse_count(r, size[1],
                                                   "column count");
  const std::int64_t nnz = io_detail::parse_count(r, size[2], "entry count");
  if (rows != cols)
    r.fail(size[1].col, "adjacency matrix must be square, got " +
                            std::to_string(rows) + "x" +
                            std::to_string(cols));

  EdgeAccumulator acc;
  acc.n = rows;
  std::int64_t entries = 0;
  while (entries < nnz) {
    if (!r.next())
      r.fail_eof("size line declared " + std::to_string(nnz) +
                 " entries but the file ends after " +
                 std::to_string(entries));
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    const std::vector<Token>& toks = r.tokens();
    if (toks.empty()) continue;
    if (toks.size() != 2 + value_tokens)
      r.fail(toks[0].col, "entry must be '<row> <col>" +
                              std::string(value_tokens > 0 ? " <value>" : "") +
                              "' for field '" + field + "', got " +
                              std::to_string(toks.size()) + " token(s)");
    // Matrix Market is firmly 1-based; 0 is out of range, not a hint.
    acc.add(r, toks[0], toks[1], 1);
    ++entries;
  }
  while (r.next()) {
    if (!r.line.empty() && r.line[0] == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    if (!r.tokens().empty())
      r.fail(1, "size line declared " + std::to_string(nnz) +
                    " entries but the file contains more");
  }
  out.stats.declared_n = rows;
  out.stats.declared_m = nnz;
  out.stats.edge_records = entries;
  out.graph = acc.finish(r.name, out.stats);
  return out;
}

// --- Whitespace edge list -------------------------------------------------

ReadResult read_edge_list(LineReader& r) {
  ReadResult out;
  out.stats.format = GraphFormat::kEdgeList;
  // Arbitrary non-negative 64-bit ids (SNAP-style dumps routinely use
  // hashes); vertices are the distinct ids, remapped to 0..n-1 in sorted
  // order. Isolated vertices are unrepresentable -- documented in
  // docs/FORMATS.md.
  std::vector<std::pair<std::int64_t, std::int64_t>> raw;
  std::int64_t self_loops = 0;
  while (r.next()) {
    if (r.line.empty()) continue;
    const char c0 = r.line[0];
    if (c0 == '#' || c0 == '%') {
      ++out.stats.comment_lines;
      continue;
    }
    const std::vector<Token>& toks = r.tokens();
    if (toks.empty()) continue;
    io_detail::parse_edge_list_line(r, toks, raw, out.stats.edge_records,
                                    self_loops);
  }
  out.graph = io_detail::finish_edge_list(r.name, r.lineno + 1, raw,
                                          self_loops, out.stats);
  return out;
}

// --- Writers --------------------------------------------------------------

// Formats into one 64 KiB block and hands each full block to the stream
// in a single write; integers go through std::to_chars. A stream whose
// streambuf refuses a block is left failed by ostream::write, which is
// what write_graph_file checks.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out) : out_(out) {}

  BlockWriter& operator<<(char c) {
    room(1);
    buf_[len_++] = c;
    return *this;
  }
  BlockWriter& operator<<(std::string_view s) {  // short literals only
    SCOL_DCHECK(s.size() <= kBlock);
    room(s.size());
    std::copy(s.begin(), s.end(), buf_.data() + len_);
    len_ += s.size();
    return *this;
  }
  template <std::integral T>
  BlockWriter& operator<<(T x) {
    room(kMaxDigits);
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_.data() + len_, buf_.data() + kBlock, x).ptr -
        buf_.data());
    return *this;
  }
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{64} << 10;
  static constexpr std::size_t kMaxDigits = 20;  // "-9223372036854775808"

  void room(std::size_t bytes) {
    if (kBlock - len_ < bytes) flush();
  }

  std::ostream& out_;
  std::vector<char> buf_ = std::vector<char>(kBlock);
  std::size_t len_ = 0;
};

// Calls f(u, v) for every edge u < v in (u, v) order — the order of
// g.edges() — straight off the sorted CSR rows.
template <class F>
void for_each_edge(const Graph& g, F&& f) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (auto it = std::upper_bound(nb.begin(), nb.end(), u); it != nb.end();
         ++it)
      f(u, *it);
  }
}

void write_dimacs(std::ostream& out, const Graph& g) {
  BlockWriter w(out);
  w << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for_each_edge(g, [&](Vertex u, Vertex v) {
    w << "e " << u + 1 << ' ' << v + 1 << '\n';
  });
  w.flush();
}

void write_metis(std::ostream& out, const Graph& g) {
  BlockWriter w(out);
  w << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (const Vertex u : g.neighbors(v)) {
      if (!first) w << ' ';
      w << u + 1;
      first = false;
    }
    w << '\n';
  }
  w.flush();
}

void write_matrix_market(std::ostream& out, const Graph& g) {
  BlockWriter w(out);
  w << "%%MatrixMarket matrix coordinate pattern symmetric\n"
    << g.num_vertices() << ' ' << g.num_vertices() << ' ' << g.num_edges()
    << '\n';
  // Symmetric storage keeps entries on or below the diagonal: row >= col.
  for_each_edge(g, [&](Vertex u, Vertex v) {
    w << v + 1 << ' ' << u + 1 << '\n';
  });
  w.flush();
}

void write_edge_list(std::ostream& out, const Graph& g) {
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    SCOL_REQUIRE(g.degree(v) > 0,
                 + ("edge-list format cannot represent isolated vertex " +
                    std::to_string(v)));
  BlockWriter w(out);
  for_each_edge(g, [&](Vertex u, Vertex v) {
    w << u << ' ' << v << '\n';
  });
  w.flush();
}

std::string extension_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return "";
  std::string ext = path.substr(dot + 1);
  for (char& c : ext)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return ext;
}

GraphFormat format_from_extension(const std::string& ext) {
  if (ext == "col") return GraphFormat::kDimacs;
  if (ext == "graph" || ext == "metis") return GraphFormat::kMetis;
  if (ext == "mtx" || ext == "mm") return GraphFormat::kMatrixMarket;
  if (ext == "edges" || ext == "el" || ext == "edgelist" || ext == "txt")
    return GraphFormat::kEdgeList;
  return GraphFormat::kAuto;  // unknown
}

}  // namespace

GraphFormat parse_format(const std::string& name) {
  if (name == "auto") return GraphFormat::kAuto;
  if (name == "dimacs" || name == "col") return GraphFormat::kDimacs;
  if (name == "metis" || name == "graph") return GraphFormat::kMetis;
  if (name == "mtx" || name == "mm" || name == "matrixmarket")
    return GraphFormat::kMatrixMarket;
  if (name == "edges" || name == "edgelist" || name == "el")
    return GraphFormat::kEdgeList;
  throw PreconditionError(
      "unknown graph format '" + name +
      "'; known: auto, dimacs (col), metis (graph), mtx (mm), edges "
      "(edgelist, el)");
}

std::string format_name(GraphFormat format) {
  switch (format) {
    case GraphFormat::kAuto: return "auto";
    case GraphFormat::kDimacs: return "dimacs";
    case GraphFormat::kMetis: return "metis";
    case GraphFormat::kMatrixMarket: return "mtx";
    case GraphFormat::kEdgeList: return "edges";
  }
  throw InternalError("unreachable GraphFormat");
}

ReadResult read_graph(std::istream& in, GraphFormat format,
                      const std::string& name) {
  SCOL_REQUIRE(format != GraphFormat::kAuto,
               + "read_graph needs an explicit format (sniffing requires a "
                 "path; use read_graph_file)");
  LineReader r{in, name};
  switch (format) {
    case GraphFormat::kDimacs: return read_dimacs(r);
    case GraphFormat::kMetis: return read_metis(r);
    case GraphFormat::kMatrixMarket: return read_matrix_market(r);
    case GraphFormat::kEdgeList: return read_edge_list(r);
    case GraphFormat::kAuto: break;
  }
  throw InternalError("unreachable GraphFormat");
}

GraphFormat sniff_format(const std::string& path, const std::string& head) {
  const GraphFormat by_ext = format_from_extension(extension_of(path));
  if (by_ext != GraphFormat::kAuto) return by_ext;
  if (head.rfind("%%MatrixMarket", 0) == 0) return GraphFormat::kMatrixMarket;
  // A DIMACS file opens with comment lines and then the problem line.
  std::istringstream in(head);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p' &&
        (line.size() == 1 || line[1] == ' ' || line[1] == '\t'))
      return GraphFormat::kDimacs;
    break;
  }
  throw PreconditionError(
      path + ": cannot sniff the graph format (unknown extension and the "
      "content is not Matrix Market or DIMACS; METIS and edge lists are "
      "content-ambiguous -- pass format= explicitly)");
}

ReadResult read_graph_file(const std::string& path, GraphFormat format) {
  return read_graph_file(path, format, ReadOptions{});
}

ReadResult read_graph_file(const std::string& path, GraphFormat format,
                           const ReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw PreconditionError(path + ": cannot open file for reading");
  if (format == GraphFormat::kAuto) {
    char head[256];
    in.read(head, sizeof(head));
    const std::string head_str(head, static_cast<std::size_t>(in.gcount()));
    format = sniff_format(path, head_str);
    in.clear();
    in.seekg(0);
  }
  int threads = options.threads;
  if (threads <= 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  // The chunk-parallel reader covers the two formats whose grammar is
  // line-splittable without lookahead (edge list, METIS). DIMACS and
  // Matrix Market stay streaming — their header/count structure is
  // sequential — as does any file the platform cannot mmap.
  if (threads > 1 && (format == GraphFormat::kEdgeList ||
                      format == GraphFormat::kMetis)) {
    ReadResult out;
    if (io_detail::try_read_file_parallel(path, format, threads, out))
      return out;
  }
  return read_graph(in, format, path);
}

void write_graph(std::ostream& out, const Graph& g, GraphFormat format) {
  switch (format) {
    case GraphFormat::kDimacs: write_dimacs(out, g); return;
    case GraphFormat::kMetis: write_metis(out, g); return;
    case GraphFormat::kMatrixMarket: write_matrix_market(out, g); return;
    case GraphFormat::kEdgeList: write_edge_list(out, g); return;
    case GraphFormat::kAuto: break;
  }
  throw PreconditionError("write_graph needs an explicit format");
}

void write_graph_file(const std::string& path, const Graph& g,
                      GraphFormat format) {
  if (format == GraphFormat::kAuto) {
    format = format_from_extension(extension_of(path));
    SCOL_REQUIRE(format != GraphFormat::kAuto,
                 + (path + ": cannot infer a write format from the "
                    "extension; pass one explicitly"));
  }
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw PreconditionError(path + ": cannot open file for writing");
  write_graph(out, g, format);
  out.flush();
  if (!out) throw PreconditionError(path + ": write failed");
}

}  // namespace scol

// mmap chunk-parallel reader for the line-splittable formats (edge list,
// METIS adjacency).
//
// The file is mapped read-only and split into newline-aligned chunks,
// one per reader thread. A cheap memchr pre-pass counts each chunk's
// lines (and, for METIS, its non-comment data lines), so by the time the
// parse pass runs every chunk knows its global 1-based starting line —
// error positions match the streaming reader exactly — and, for METIS,
// the vertex id of each adjacency line. Chunk results merge in chunk
// order, which reproduces the streaming reader's accumulator state
// verbatim; the shared tails in reader_detail.h then build the graph, so
// the CSR, the ReadStats, and every error message are bit-identical to
// the streaming path (tests/test_csr_differential.cpp pins this).
//
// Error semantics under parallelism: each chunk parses its lines in
// order and records only its first error; chunks cover disjoint,
// increasing line ranges, so the first chunk (by index) with an error
// holds the file's earliest error. File-level errors (truncation, entry
// count mismatches) are checked after all line-level errors, matching
// the streaming reader's order exactly.
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "scol/io/io.h"
#include "scol/io/reader_detail.h"
#include "scol/util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define SCOL_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SCOL_HAVE_MMAP 0
#endif

namespace scol {
namespace io_detail {
namespace {

// A reader error caught inside a chunk, carrying the GLOBAL 1-based
// position; the top level converts the earliest one into the identical
// PreconditionError the streaming reader would have thrown.
struct ChunkError {
  std::size_t line = 0;
  std::size_t col = 1;
  std::string what;
};

// Parse context for mapped text: satisfies the reader_detail Ctx
// contract with a throw of ChunkError instead of PreconditionError.
struct MapCtx {
  std::size_t lineno = 0;  // global, 1-based

  [[noreturn]] void fail(std::size_t col, const std::string& what) const {
    throw ChunkError{lineno, col, what};
  }
  [[noreturn]] void fail_eof(const std::string& what) const {
    throw ChunkError{lineno + 1, 1, what};
  }
};

#if SCOL_HAVE_MMAP

struct MappedFile {
  const char* data = nullptr;
  std::size_t size = 0;

  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data != nullptr) ::munmap(const_cast<char*>(data), size);
  }

  // False when the path is not a mappable regular file (empty files
  // included — the streaming reader owns their semantics).
  bool open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
      ::close(fd);
      return false;
    }
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                     PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) return false;
    data = static_cast<const char*>(p);
    size = static_cast<std::size_t>(st.st_size);
    ::madvise(p, size, MADV_SEQUENTIAL);  // best effort
    return true;
  }
};

// Invokes fn(line) for every line of a line-aligned range, with the
// trailing '\r' stripped (CRLF) exactly like the streaming LineReader.
template <class Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + pos, '\n', text.size() - pos));
    const std::size_t end =
        nl != nullptr ? static_cast<std::size_t>(nl - text.data())
                      : text.size();
    std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    fn(line);
    pos = nl != nullptr ? end + 1 : text.size();
  }
}

// Splits `text` into up to `parts` newline-aligned [begin, end) ranges.
// Every range begins at a line start (offset 0 or the byte after a
// '\n'), so no line spans two ranges. Short files yield fewer ranges.
std::vector<std::pair<std::size_t, std::size_t>> split_lines(
    std::string_view text, int parts) {
  std::vector<std::size_t> starts{0};
  for (int i = 1; i < parts; ++i) {
    std::size_t target = text.size() * static_cast<std::size_t>(i) /
                         static_cast<std::size_t>(parts);
    if (target < starts.back()) target = starts.back();
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + target, '\n', text.size() - target));
    const std::size_t s = nl != nullptr
                              ? static_cast<std::size_t>(nl - text.data()) + 1
                              : text.size();
    if (s > starts.back() && s < text.size()) starts.push_back(s);
  }
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i)
    out.emplace_back(starts[i],
                     i + 1 < starts.size() ? starts[i + 1] : text.size());
  return out;
}

// Line starts in a line-aligned range; data lines are the non-'%' ones
// (METIS comment detection looks at the line's first byte, which CRLF
// stripping never changes on a non-empty line).
struct LineCounts {
  std::size_t lines = 0;
  std::size_t data = 0;
};

LineCounts count_lines(std::string_view text) {
  LineCounts c;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++c.lines;
    if (text[pos] != '%') ++c.data;
    const char* nl = static_cast<const char*>(
        std::memchr(text.data() + pos, '\n', text.size() - pos));
    if (nl == nullptr) break;
    pos = static_cast<std::size_t>(nl - text.data()) + 1;
  }
  return c;
}

// --- Edge list ------------------------------------------------------------

struct ElChunk {
  std::vector<std::pair<std::int64_t, std::int64_t>> raw;
  std::int64_t records = 0;
  std::int64_t comments = 0;
  std::int64_t self_loops = 0;
  std::optional<ChunkError> error;
};

void parse_el_chunk(std::string_view chunk, std::size_t start_line,
                    ElChunk& out) {
  MapCtx ctx{start_line - 1};
  std::vector<io_detail::Token> toks;
  try {
    for_each_line(chunk, [&](std::string_view line) {
      ++ctx.lineno;
      if (line.empty()) return;
      const char c0 = line[0];
      if (c0 == '#' || c0 == '%') {
        ++out.comments;
        return;
      }
      tokenize(line, toks);
      if (toks.empty()) return;
      parse_edge_list_line(ctx, toks, out.raw, out.records, out.self_loops);
    });
  } catch (ChunkError& e) {
    out.error = std::move(e);
  }
}

ReadResult read_edge_list_parallel(const std::string& path,
                                   std::string_view text, ThreadPool& pool) {
  const auto chunks = split_lines(text, pool.num_threads());
  std::vector<LineCounts> counts(chunks.size());
  pool.run_chunks(chunks.size(), [&](std::size_t i) {
    counts[i] = count_lines(
        text.substr(chunks[i].first, chunks[i].second - chunks[i].first));
  });
  std::vector<std::size_t> start_line(chunks.size());
  std::size_t total_lines = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    start_line[i] = total_lines + 1;
    total_lines += counts[i].lines;
  }

  std::vector<ElChunk> parts(chunks.size());
  pool.run_chunks(chunks.size(), [&](std::size_t i) {
    parse_el_chunk(
        text.substr(chunks[i].first, chunks[i].second - chunks[i].first),
        start_line[i], parts[i]);
  });
  // Chunks cover increasing line ranges, so the first chunk holding an
  // error holds the file's earliest error.
  for (const ElChunk& p : parts)
    if (p.error) throw *p.error;

  ReadResult out;
  out.stats.format = GraphFormat::kEdgeList;
  std::size_t total_raw = 0;
  for (const ElChunk& p : parts) total_raw += p.raw.size();
  std::vector<std::pair<std::int64_t, std::int64_t>> raw;
  raw.reserve(total_raw);
  std::int64_t self_loops = 0;
  for (ElChunk& p : parts) {
    raw.insert(raw.end(), p.raw.begin(), p.raw.end());
    p.raw.clear();
    p.raw.shrink_to_fit();
    out.stats.edge_records += p.records;
    out.stats.comment_lines += p.comments;
    self_loops += p.self_loops;
  }
  out.graph =
      finish_edge_list(path, total_lines + 1, raw, self_loops, out.stats);
  return out;
}

// --- METIS ----------------------------------------------------------------

struct MetisChunk {
  EdgeAccumulator acc;
  std::int64_t entries = 0;
  std::int64_t comments = 0;
  std::optional<ChunkError> error;
};

void parse_metis_chunk(std::string_view chunk, std::size_t start_line,
                       std::int64_t data_start, const MetisHeader& h,
                       MetisChunk& out) {
  MapCtx ctx{start_line - 1};
  std::vector<Token> toks;
  std::int64_t data = data_start;
  out.acc.n = h.n;
  try {
    for_each_line(chunk, [&](std::string_view line) {
      ++ctx.lineno;
      if (!line.empty() && line[0] == '%') {
        ++out.comments;
        return;
      }
      tokenize(line, toks);
      if (data >= h.n) {
        // Past the declared adjacency lines only blanks and comments may
        // follow (the streaming reader's trailing scan).
        if (!toks.empty())
          ctx.fail(1, "data after the last of the " + std::to_string(h.n) +
                          " declared adjacency lines");
      } else {
        out.entries += parse_metis_line(ctx, toks, h,
                                        static_cast<Vertex>(data), out.acc);
      }
      ++data;
    });
  } catch (ChunkError& e) {
    out.error = std::move(e);
  }
}

ReadResult read_metis_parallel(const std::string& path, std::string_view text,
                               ThreadPool& pool) {
  ReadResult out;
  out.stats.format = GraphFormat::kMetis;
  // Header: "<n> <m> [fmt [ncon]]" after any leading % comments. The
  // scan is sequential — it touches only the first few lines.
  MapCtx head_ctx;
  std::vector<Token> toks;
  std::optional<MetisHeader> header;
  std::size_t body_begin = text.size();
  {
    std::size_t pos = 0;
    while (pos < text.size() && !header) {
      const char* nl = static_cast<const char*>(
          std::memchr(text.data() + pos, '\n', text.size() - pos));
      const std::size_t end =
          nl != nullptr ? static_cast<std::size_t>(nl - text.data())
                        : text.size();
      std::string_view line = text.substr(pos, end - pos);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      ++head_ctx.lineno;
      pos = nl != nullptr ? end + 1 : text.size();
      if (!line.empty() && line[0] == '%') {
        ++out.stats.comment_lines;
        continue;
      }
      tokenize(line, toks);
      if (!toks.empty()) {
        header = parse_metis_header_tokens(head_ctx, toks);
        body_begin = pos;
      }
    }
  }
  if (!header)
    head_ctx.fail_eof("file ends before the '<vertices> <edges> [fmt]' "
                      "header");
  const MetisHeader h = *header;
  const std::size_t header_lines = head_ctx.lineno;

  const std::string_view body = text.substr(body_begin);
  const auto chunks = split_lines(body, pool.num_threads());
  std::vector<LineCounts> counts(chunks.size());
  pool.run_chunks(chunks.size(), [&](std::size_t i) {
    counts[i] = count_lines(
        body.substr(chunks[i].first, chunks[i].second - chunks[i].first));
  });
  std::vector<std::size_t> start_line(chunks.size());
  std::vector<std::int64_t> data_start(chunks.size());
  std::size_t body_lines = 0;
  std::int64_t total_data = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    start_line[i] = header_lines + body_lines + 1;
    data_start[i] = total_data;
    body_lines += counts[i].lines;
    total_data += static_cast<std::int64_t>(counts[i].data);
  }

  std::vector<MetisChunk> parts(chunks.size());
  pool.run_chunks(chunks.size(), [&](std::size_t i) {
    parse_metis_chunk(
        body.substr(chunks[i].first, chunks[i].second - chunks[i].first),
        start_line[i], data_start[i], h, parts[i]);
  });
  for (const MetisChunk& p : parts)
    if (p.error) throw *p.error;

  const std::size_t total_lines = header_lines + body_lines;
  if (total_data < h.n)
    throw ChunkError{total_lines + 1, 1,
                     "file ends after " + std::to_string(total_data) +
                         " of the " + std::to_string(h.n) +
                         " declared adjacency lines"};
  std::int64_t entries = 0;
  for (const MetisChunk& p : parts) entries += p.entries;
  if (entries != 2 * h.declared_m)
    throw ChunkError{total_lines + 1, 1,
                     "header declared " + std::to_string(h.declared_m) +
                         " edges (" + std::to_string(2 * h.declared_m) +
                         " adjacency entries; each edge appears twice) but "
                         "the lists contain " + std::to_string(entries) +
                         " entries"};

  EdgeAccumulator merged;
  merged.n = h.n;
  std::size_t total_pairs = 0;
  for (const MetisChunk& p : parts) total_pairs += p.acc.edges.size();
  merged.edges.reserve(total_pairs);
  for (MetisChunk& p : parts) {
    merged.edges.insert(merged.edges.end(), p.acc.edges.begin(),
                        p.acc.edges.end());
    p.acc.edges.clear();
    p.acc.edges.shrink_to_fit();
    // The recorded lines are global, so "first" merges by min.
    if (p.acc.first_zero_line != 0 &&
        (merged.first_zero_line == 0 ||
         p.acc.first_zero_line < merged.first_zero_line))
      merged.first_zero_line = p.acc.first_zero_line;
    if (p.acc.first_n_line != 0 &&
        (merged.first_n_line == 0 || p.acc.first_n_line < merged.first_n_line))
      merged.first_n_line = p.acc.first_n_line;
    out.stats.comment_lines += p.comments;
  }
  out.stats.declared_n = h.n;
  out.stats.declared_m = h.declared_m;
  out.stats.edge_records = entries;
  out.graph = finish_metis(path, merged, out.stats);
  return out;
}

#endif  // SCOL_HAVE_MMAP

}  // namespace

bool try_read_file_parallel(const std::string& path, GraphFormat format,
                            int threads, ReadResult& out) {
#if SCOL_HAVE_MMAP
  SCOL_REQUIRE(format == GraphFormat::kEdgeList ||
                   format == GraphFormat::kMetis,
               + "parallel reader covers edge-list and METIS only");
  MappedFile map;
  if (!map.open(path)) return false;
  const std::string_view text(map.data, map.size);
  ThreadPool pool(threads);
  try {
    out = format == GraphFormat::kEdgeList
              ? read_edge_list_parallel(path, text, pool)
              : read_metis_parallel(path, text, pool);
  } catch (const ChunkError& e) {
    fail_at(path, e.line, e.col, e.what);
  }
  return true;
#else
  (void)path;
  (void)format;
  (void)threads;
  (void)out;
  return false;
#endif
}

}  // namespace io_detail
}  // namespace scol

#include "scol/coloring/exact.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "scol/graph/cliques.h"

namespace scol {
namespace {

/// Positions in [0, n) as a 64-ary tree of bit words, leaves first:
/// insert, erase and min cost O(log_64 n).
class BitTree {
 public:
  explicit BitTree(std::size_t n) {
    do {
      n = std::max<std::size_t>((n + 63) / 64, 1);
      levels_.emplace_back(n, 0);
    } while (n > 1);
  }
  void insert(std::size_t i) {
    for (auto& level : levels_) {
      const bool had = level[i / 64] != 0;
      level[i / 64] |= std::uint64_t{1} << (i % 64);
      if (had) return;
      i /= 64;
    }
  }
  void erase(std::size_t i) {
    for (auto& level : levels_) {
      if ((level[i / 64] &= ~(std::uint64_t{1} << (i % 64))) != 0) return;
      i /= 64;
    }
  }
  /// The smallest position; the set must not be empty.
  std::size_t min() const {
    std::size_t i = 0;
    for (auto it = levels_.rbegin(); it != levels_.rend(); ++it)
      i = i * 64 + static_cast<std::size_t>(std::countr_zero((*it)[i]));
    return i;
  }

 private:
  std::vector<std::vector<std::uint64_t>> levels_;
};

/// The one search behind every entry point; exact.h states its order,
/// symmetry breaking and budget. `budget_error` is the overflow message.
std::optional<Coloring> search(const Graph& g, const ListAssignment& lists,
                               std::int64_t budget, const char* budget_error) {
  const Vertex n = g.num_vertices();
  const auto un = static_cast<std::size_t>(n);

  // Dense colour ids index the counters; `ids` mirrors `lists`. Uniform
  // lists are [0, k) over the palette [0, k), so they are their own ids.
  const std::vector<Color> palette = lists.palette();
  const std::size_t p = palette.size();
  // blocked[v*p + c]: v's placed neighbours coloured c, plus one when c is
  // not on v's list, so a list colour is free for v iff its count is 0.
  std::vector<Vertex> blocked(un * p, lists.uniform() ? 0 : 1);
  std::vector<Vertex> free_count(un);
  ListAssignment ids = lists.uniform() ? lists : ListAssignment{};
  bool identical = true;
  std::vector<Color> row;
  for (Vertex v = 0; v < n && !lists.uniform(); ++v) {
    row.clear();
    for (Color x : lists.of(v)) {
      row.push_back(static_cast<Color>(
          std::ranges::lower_bound(palette, x) - palette.begin()));
      blocked[v * p + row.back()] = 0;
    }
    ids.append(row);
    identical = identical && std::ranges::equal(lists.of(v), lists.of(0));
  }
  std::size_t max_len = 0;
  for (Vertex v = 0; v < n; ++v) {
    free_count[v] = static_cast<Vertex>(ids.of(v).size());
    max_len = std::max(max_len, ids.of(v).size());
  }

  // The queue holds each uncoloured vertex v not yet branched on at
  // free_count[v] * n + rank[v], rank ordering by degree desc, then id
  // asc. Its minimum is the MRV vertex, and lies below n iff some vertex
  // has no free colour left.
  std::vector<Vertex> by_rank(un);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::ranges::stable_sort(by_rank, std::greater{},
                           [&](Vertex v) { return g.degree(v); });
  std::vector<std::size_t> rank(un);
  for (std::size_t r = 0; r < un; ++r) rank[by_rank[r]] = r;
  const auto key = [&](Vertex v) {
    return static_cast<std::size_t>(free_count[v]) * un + rank[v];
  };
  BitTree queue((max_len + 1) * un);
  for (Vertex v = 0; v < n; ++v) queue.insert(key(v));

  Coloring colors = empty_coloring(n);
  std::vector<Vertex> used(p, 0);  // placed vertices per dense colour
  // Places (d = 1) or lifts (d = -1) entry i of v's list. Only uncoloured
  // neighbours are updated, which LIFO backtracking keeps exact.
  const auto toggle = [&](Vertex v, std::size_t i, Vertex d) {
    const Color c = ids.of(v)[i];
    colors[v] = d > 0 ? lists.of(v)[i] : kUncolored;
    used[c] += d;
    for (Vertex w : g.neighbors(v)) {
      if (colors[w] != kUncolored) continue;
      Vertex& b = blocked[w * p + c];
      b += d;
      if (b != (d > 0 ? 1 : 0)) continue;  // c was already blocked for w
      queue.erase(key(w));
      free_count[w] -= d;
      queue.insert(key(w));
    }
  };

  // Frames (v, next): v's list is tried from index next; next-1 is placed.
  std::vector<std::pair<Vertex, std::size_t>> stack;
  for (;;) {
    // A search-tree node: every frame on the stack has its colour placed.
    if (--budget < 0) throw InternalError(budget_error);
    if (stack.size() == un) return colors;
    if (const std::size_t top = queue.min(); top >= un) {
      queue.erase(top);
      stack.push_back({by_rank[top % un], 0});
    }
    // Place the top frame's next free colour, popping exhausted frames.
    for (;;) {
      if (stack.empty()) return std::nullopt;
      auto& [v, next] = stack.back();
      const auto l = ids.of(v);
      if (next > 0) {
        toggle(v, next - 1, -1);
        // Identical lists: the colours no placed vertex uses are
        // interchangeable, so after one of them the rest are skipped.
        if (identical && used[l[next - 1]] == 0) next = l.size();
      }
      while (next < l.size() && blocked[v * p + l[next]] != 0) ++next;
      if (next < l.size()) {
        toggle(v, next++, 1);
        break;
      }
      queue.insert(key(v));
      stack.pop_back();
    }
  }
}

}  // namespace

std::optional<Coloring> find_k_coloring(const Graph& g, Vertex k,
                                        std::int64_t node_budget) {
  SCOL_REQUIRE(k >= 1);
  return search(g, uniform_lists(g.num_vertices(), k), node_budget,
                "find_k_coloring: budget exceeded");
}

Vertex chromatic_number(const Graph& g, std::int64_t node_budget) {
  if (g.num_vertices() == 0) return 0;
  if (g.num_edges() == 0) return 1;
  // Clique lower bound: grow until no clique of that size exists.
  Vertex lb = 2;
  while (lb + 1 <= g.num_vertices() && find_clique(g, lb + 1).has_value())
    ++lb;
  for (Vertex k = lb;; ++k) {
    if (find_k_coloring(g, k, node_budget).has_value()) return k;
  }
}

std::optional<Coloring> find_list_coloring(const Graph& g,
                                           const ListAssignment& lists,
                                           std::int64_t node_budget) {
  SCOL_REQUIRE(lists.size() == g.num_vertices());
  SCOL_REQUIRE(lists.canonical(), + "lists must be sorted unique");
  return search(g, lists, node_budget, "find_list_coloring: budget exceeded");
}

}  // namespace scol
